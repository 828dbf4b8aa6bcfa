// A miniature Jinja-style template engine (§3.1, Listing 1).
//
// The paper renders kernel C source from layer templates using Python Jinja;
// we reimplement the needed subset in C++ so the whole snapshot pipeline is
// self-contained:
//   {{ expr }}                       output substitution
//   {% for v in range(a, b) %}...{% endfor %}
//   {% for v in array %}...{% endfor %}
//   {% if [not] expr %}...{% endif %}
//   loop.last / loop.first / loop.index0 inside for bodies
//   {%- ... -%} / {{- ... -}}        whitespace trimming
// Expressions: integer literals, identifiers, 1-2 level indexing a[i][j]
// with integer or identifier indices, and the dotted loop variables.
// Expressions are parsed once, when the template is; rendering evaluates
// them to references into the context and binds loop variables through a
// chain of scopes, so no tvalue is copied while rendering.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace lf::codegen {

/// Template values: integers, strings, or (nested) arrays.
class tvalue {
 public:
  tvalue() : kind_{kind::integer}, int_{0} {}
  tvalue(std::int64_t v) : kind_{kind::integer}, int_{v} {}  // NOLINT implicit
  tvalue(std::string v) : kind_{kind::string}, str_{std::move(v)} {}  // NOLINT
  tvalue(const char* v) : tvalue{std::string{v}} {}                   // NOLINT
  // Note parentheses, not braces: brace-init would select vector's
  // initializer_list constructor and recurse through this converting ctor.
  tvalue(std::vector<tvalue> v)                                       // NOLINT
      : kind_{kind::array}, arr_(std::move(v)) {}

  bool is_int() const noexcept { return kind_ == kind::integer; }
  bool is_string() const noexcept { return kind_ == kind::string; }
  bool is_array() const noexcept { return kind_ == kind::array; }

  std::int64_t as_int() const;          ///< throws if not an integer
  const std::string& as_string() const; ///< throws if not a string
  const std::vector<tvalue>& as_array() const;  ///< throws if not an array

  /// Truthiness: nonzero int, nonempty string/array.
  bool truthy() const noexcept;

 private:
  enum class kind { integer, string, array };
  kind kind_;
  std::int64_t int_ = 0;
  std::string str_;
  std::vector<tvalue> arr_;
};

using tcontext = std::map<std::string, tvalue, std::less<>>;

/// Render a template against a context.  Throws template_error with a
/// character offset on malformed templates or unknown variables.
std::string render_template(std::string_view tmpl, const tcontext& ctx);

class template_error : public std::runtime_error {
 public:
  template_error(const std::string& message, std::size_t offset);
  std::size_t offset() const noexcept { return offset_; }

 private:
  std::size_t offset_;
};

}  // namespace lf::codegen
