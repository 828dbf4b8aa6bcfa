#include "codegen/template_engine.hpp"

#include <cctype>
#include <charconv>
#include <sstream>
#include <stdexcept>

namespace lf::codegen {

std::int64_t tvalue::as_int() const {
  if (!is_int()) throw std::runtime_error{"tvalue: not an integer"};
  return int_;
}

const std::string& tvalue::as_string() const {
  if (!is_string()) throw std::runtime_error{"tvalue: not a string"};
  return str_;
}

const std::vector<tvalue>& tvalue::as_array() const {
  if (!is_array()) throw std::runtime_error{"tvalue: not an array"};
  return arr_;
}

bool tvalue::truthy() const noexcept {
  switch (kind_) {
    case kind::integer:
      return int_ != 0;
    case kind::string:
      return !str_.empty();
    case kind::array:
      return !arr_.empty();
  }
  return false;
}

template_error::template_error(const std::string& message, std::size_t offset)
    : std::runtime_error{message + " (at offset " + std::to_string(offset) +
                         ")"},
      offset_{offset} {}

namespace {

// ---------------------------------------------------------------- tokens --

enum class token_kind { text, output, tag };

struct token {
  token_kind kind;
  std::string body;   // raw text, or trimmed inner content for output/tag
  std::size_t offset; // source offset (diagnostics)
};

std::string strip(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string{s.substr(b, e - b)};
}

std::vector<token> tokenize(std::string_view tmpl) {
  std::vector<token> tokens;
  std::size_t pos = 0;
  bool trim_leading = false;  // set by a preceding -%} / -}}
  while (pos < tmpl.size()) {
    std::size_t open = std::string_view::npos;
    bool is_output = false;
    const auto out_open = tmpl.find("{{", pos);
    const auto tag_open = tmpl.find("{%", pos);
    if (out_open != std::string_view::npos &&
        (tag_open == std::string_view::npos || out_open < tag_open)) {
      // "{{%" is a literal '{' followed by a tag, not an output marker.
      if (tag_open == out_open + 1) {
        open = tag_open;
      } else {
        open = out_open;
        is_output = true;
      }
    } else {
      open = tag_open;
    }
    if (open == std::string_view::npos) {
      auto text = std::string{tmpl.substr(pos)};
      if (trim_leading) {
        const auto first = text.find_first_not_of(" \t\r\n");
        text = first == std::string::npos ? std::string{} : text.substr(first);
      }
      if (!text.empty()) tokens.push_back({token_kind::text, text, pos});
      break;
    }
    // Leading text before the tag.
    if (open > pos) {
      auto text = std::string{tmpl.substr(pos, open - pos)};
      if (trim_leading) {
        const auto first = text.find_first_not_of(" \t\r\n");
        text = first == std::string::npos ? std::string{} : text.substr(first);
      }
      trim_leading = false;
      // {{- or {%- trims trailing whitespace of the preceding text.
      if (open + 2 < tmpl.size() && tmpl[open + 2] == '-') {
        const auto last = text.find_last_not_of(" \t\r\n");
        text = last == std::string::npos ? std::string{} : text.substr(0, last + 1);
      }
      if (!text.empty()) tokens.push_back({token_kind::text, text, pos});
    } else {
      trim_leading = false;
    }
    const std::string_view close_marker = is_output ? "}}" : "%}";
    const auto close = tmpl.find(close_marker, open + 2);
    if (close == std::string_view::npos) {
      throw template_error{"unterminated tag", open};
    }
    std::string_view inner = tmpl.substr(open + 2, close - open - 2);
    if (!inner.empty() && inner.front() == '-') inner.remove_prefix(1);
    bool trim_after = false;
    if (!inner.empty() && inner.back() == '-') {
      inner.remove_suffix(1);
      trim_after = true;
    }
    tokens.push_back({is_output ? token_kind::output : token_kind::tag,
                      strip(inner), open});
    pos = close + 2;
    trim_leading = trim_after;
  }
  return tokens;
}

// ----------------------------------------------------------- expressions --

// What an expression evaluates to, without copying a tvalue: a reference
// into the context (an identifier, an element of one, or a bound loop item),
// an inline integer (literals, loop.* attributes, range elements), or a lazy
// integer range [lo, hi).
struct value_ref {
  enum class kind { ref, integer, range };
  kind k = kind::integer;
  const tvalue* ref = nullptr;
  std::int64_t lo = 0;  // the integer, or the range's first element
  std::int64_t hi = 0;  // the range's end

  static value_ref of(const tvalue& v) { return {kind::ref, &v, 0, 0}; }
  static value_ref integer(std::int64_t v) {
    return {kind::integer, nullptr, v, 0};
  }
  static value_ref range(std::int64_t lo, std::int64_t hi) {
    return {kind::range, nullptr, lo, hi};
  }

  std::int64_t as_int() const {
    if (k == kind::ref) return ref->as_int();
    if (k == kind::range) throw std::runtime_error{"tvalue: not an integer"};
    return lo;
  }

  std::size_t size() const {
    if (k == kind::ref) return ref->as_array().size();
    if (k == kind::integer) throw std::runtime_error{"tvalue: not an array"};
    return hi > lo ? static_cast<std::size_t>(hi - lo) : 0;
  }

  /// Element i of an array or range; i < size().
  value_ref at(std::size_t i) const {
    if (k == kind::ref) return of(ref->as_array()[i]);
    return integer(lo + static_cast<std::int64_t>(i));
  }

  bool truthy() const {
    switch (k) {
      case kind::ref:
        return ref->truthy();
      case kind::integer:
        return lo != 0;
      case kind::range:
        return hi > lo;
    }
    return false;
  }

  /// Append the {{ }} rendering: decimal integers, strings verbatim.
  void append_to(std::string& out) const {
    if (k == kind::range || (k == kind::ref && ref->is_array())) {
      throw std::runtime_error{"tvalue: cannot render an array"};
    }
    if (k == kind::ref && ref->is_string()) {
      out += ref->as_string();
      return;
    }
    char buf[24];
    const auto r = std::to_chars(buf, buf + sizeof(buf), as_int());
    out.append(buf, r.ptr);
  }
};

enum class loop_attr { none, index0, first, last };

// One loop level of the scope chain.  Lookups walk from the innermost frame
// outward, then fall back to the globals, so a loop variable shadows both
// outer loop variables and context entries; loop.* names the innermost loop.
struct frame {
  const tcontext* globals;
  const frame* parent = nullptr;  // null for the top-level (globals) frame
  std::string_view var{};
  value_ref item{};
  std::size_t index = 0;
  std::size_t count = 0;

  value_ref loop(loop_attr a) const {
    switch (a) {
      case loop_attr::index0:
        return value_ref::integer(static_cast<std::int64_t>(index));
      case loop_attr::first:
        return value_ref::integer(index == 0 ? 1 : 0);
      case loop_attr::last:
        return value_ref::integer(index + 1 == count ? 1 : 0);
      case loop_attr::none:
        break;
    }
    return {};
  }
};

/// An expression compiled once at template parse time.
struct expr {
  enum class kind { literal, variable, index, range };
  kind k = kind::literal;
  std::int64_t literal = 0;
  std::string name;                 // variable: flat (possibly dotted) key
  loop_attr attr = loop_attr::none;  // variable: loop.index0/first/last
  std::unique_ptr<expr> lhs;        // index: the array; range: lo
  std::unique_ptr<expr> rhs;        // index: the subscript; range: hi
  std::size_t offset = 0;           // diagnostics

  value_ref eval(const frame& sc) const {
    switch (k) {
      case kind::literal:
        return value_ref::integer(literal);
      case kind::variable:
        return lookup(sc);
      case kind::index: {
        const value_ref base = lhs->eval(sc);
        const auto i = rhs->eval(sc).as_int();
        if (i < 0 || static_cast<std::size_t>(i) >= base.size()) {
          throw template_error{"index out of range", offset};
        }
        return base.at(static_cast<std::size_t>(i));
      }
      case kind::range:
        return value_ref::range(lhs->eval(sc).as_int(),
                                rhs->eval(sc).as_int());
    }
    return {};
  }

 private:
  value_ref lookup(const frame& sc) const {
    if (attr != loop_attr::none && sc.parent != nullptr) return sc.loop(attr);
    for (const frame* f = &sc; f->parent != nullptr; f = f->parent) {
      if (f->var == name) return f->item;
    }
    const auto it = sc.globals->find(name);
    if (it == sc.globals->end()) {
      throw template_error{"unknown variable '" + name + "'", offset};
    }
    return value_ref::of(it->second);
  }
};

class expr_parser {
 public:
  expr_parser(std::string_view text, std::size_t base_offset)
      : text_{text}, base_{base_offset} {}

  std::unique_ptr<expr> parse() {
    auto e = parse_postfix();
    skip_ws();
    if (pos_ != text_.size()) {
      throw template_error{"trailing characters in expression", base_ + pos_};
    }
    return e;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::unique_ptr<expr> parse_postfix() {
    auto e = parse_primary();
    while (consume('[')) {
      auto idx = std::make_unique<expr>();
      idx->k = expr::kind::index;
      idx->lhs = std::move(e);
      idx->rhs = parse_postfix();
      if (!consume(']')) {
        throw template_error{"expected ']'", base_ + pos_};
      }
      idx->offset = base_ + pos_;
      e = std::move(idx);
    }
    return e;
  }

  std::unique_ptr<expr> parse_primary() {
    skip_ws();
    if (pos_ >= text_.size()) {
      throw template_error{"empty expression", base_ + pos_};
    }
    const char c = text_[pos_];
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '-') {
      return parse_int();
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::string name = parse_identifier();
      if (name == "range") return parse_range();
      // Dotted lookups (loop.last) resolve as flat keys.
      while (consume('.')) name += "." + parse_identifier();
      auto e = std::make_unique<expr>();
      e->k = expr::kind::variable;
      if (name == "loop.index0") e->attr = loop_attr::index0;
      if (name == "loop.first") e->attr = loop_attr::first;
      if (name == "loop.last") e->attr = loop_attr::last;
      e->name = std::move(name);
      e->offset = base_ + pos_;
      return e;
    }
    throw template_error{"unexpected character in expression", base_ + pos_};
  }

  std::unique_ptr<expr> parse_int() {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    auto e = std::make_unique<expr>();
    const auto r = std::from_chars(text_.data() + start, text_.data() + pos_,
                                   e->literal);
    if (r.ec != std::errc{} || r.ptr != text_.data() + pos_) {
      throw template_error{"bad integer literal", base_ + start};
    }
    return e;
  }

  std::string parse_identifier() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_')) {
      ++pos_;
    }
    if (pos_ == start) {
      throw template_error{"expected identifier", base_ + start};
    }
    return std::string{text_.substr(start, pos_ - start)};
  }

  std::unique_ptr<expr> parse_range() {
    auto e = std::make_unique<expr>();
    e->k = expr::kind::range;
    if (!consume('(')) throw template_error{"expected '('", base_ + pos_};
    e->lhs = parse_postfix();
    if (!consume(',')) throw template_error{"expected ','", base_ + pos_};
    e->rhs = parse_postfix();
    if (!consume(')')) throw template_error{"expected ')'", base_ + pos_};
    return e;
  }

  std::string_view text_;
  std::size_t base_;
  std::size_t pos_ = 0;
};

std::unique_ptr<expr> compile_expr(std::string_view text, std::size_t offset) {
  return expr_parser{text, offset}.parse();
}

// ------------------------------------------------------------------ AST --

struct node {
  virtual ~node() = default;
  virtual void render(std::string& out, const frame& sc) const = 0;
};

using node_list = std::vector<std::unique_ptr<node>>;

void render_all(const node_list& nodes, std::string& out, const frame& sc) {
  for (const auto& n : nodes) n->render(out, sc);
}

struct text_node final : node {
  explicit text_node(std::string t) : text{std::move(t)} {}
  void render(std::string& out, const frame&) const override { out += text; }
  std::string text;
};

struct output_node final : node {
  explicit output_node(std::unique_ptr<expr> e) : value{std::move(e)} {}
  void render(std::string& out, const frame& sc) const override {
    value->eval(sc).append_to(out);
  }
  std::unique_ptr<expr> value;
};

struct for_node final : node {
  std::string var;
  std::unique_ptr<expr> seq;
  node_list body;

  void render(std::string& out, const frame& sc) const override {
    const value_ref items = seq->eval(sc);
    frame inner{sc.globals, &sc, var, {}, 0, items.size()};
    for (; inner.index < inner.count; ++inner.index) {
      inner.item = items.at(inner.index);
      render_all(body, out, inner);
    }
  }
};

struct if_node final : node {
  bool negate = false;
  std::unique_ptr<expr> cond;
  node_list body;

  void render(std::string& out, const frame& sc) const override {
    if (cond->eval(sc).truthy() != negate) render_all(body, out, sc);
  }
};

// --------------------------------------------------------------- parser --

class block_parser {
 public:
  explicit block_parser(const std::vector<token>& tokens) : tokens_{tokens} {}

  /// Parse until end-of-tokens or until the named closing tag is consumed.
  node_list parse(std::string_view until) {
    node_list out;
    while (pos_ < tokens_.size()) {
      const token& t = tokens_[pos_];
      switch (t.kind) {
        case token_kind::text:
          out.push_back(std::make_unique<text_node>(t.body));
          ++pos_;
          break;
        case token_kind::output:
          out.push_back(
              std::make_unique<output_node>(compile_expr(t.body, t.offset)));
          ++pos_;
          break;
        case token_kind::tag: {
          std::istringstream is{t.body};
          std::string keyword;
          is >> keyword;
          if (keyword == until) {
            ++pos_;
            return out;
          }
          if (keyword == "for") {
            out.push_back(parse_for(t));
          } else if (keyword == "if") {
            out.push_back(parse_if(t));
          } else {
            throw template_error{"unexpected tag '" + keyword + "'", t.offset};
          }
          break;
        }
      }
    }
    if (!until.empty()) {
      throw template_error{"missing closing tag '" + std::string{until} + "'",
                           tokens_.empty() ? 0 : tokens_.back().offset};
    }
    return out;
  }

 private:
  std::unique_ptr<node> parse_for(const token& t) {
    std::istringstream is{t.body};
    std::string kw;
    std::string var;
    std::string in_kw;
    is >> kw >> var >> in_kw;
    std::string seq;
    std::getline(is, seq);
    seq = strip(seq);
    if (in_kw != "in" || var.empty() || seq.empty()) {
      throw template_error{"malformed for tag", t.offset};
    }
    auto n = std::make_unique<for_node>();
    n->var = var;
    n->seq = compile_expr(seq, t.offset);
    ++pos_;
    n->body = parse("endfor");
    return n;
  }

  std::unique_ptr<node> parse_if(const token& t) {
    std::string rest = strip(t.body.substr(2));  // drop "if"
    auto n = std::make_unique<if_node>();
    if (rest.rfind("not ", 0) == 0) {
      n->negate = true;
      rest = strip(rest.substr(4));
    }
    if (rest.empty()) throw template_error{"malformed if tag", t.offset};
    n->cond = compile_expr(rest, t.offset);
    ++pos_;
    n->body = parse("endif");
    return n;
  }

  const std::vector<token>& tokens_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string render_template(std::string_view tmpl, const tcontext& ctx) {
  const auto tokens = tokenize(tmpl);
  block_parser parser{tokens};
  const node_list nodes = parser.parse("");
  std::string out;
  out.reserve(tmpl.size());
  render_all(nodes, out, frame{&ctx});
  return out;
}

}  // namespace lf::codegen
