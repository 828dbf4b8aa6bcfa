#include "codegen/compiled_snapshot.hpp"

#include <dlfcn.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "codegen/c_emitter.hpp"

namespace lf::codegen {
namespace {

/// Unique temp path under TMPDIR (or /tmp).
std::string temp_path(const char* suffix) {
  const char* dir = std::getenv("TMPDIR");
  if (!dir || *dir == '\0') dir = "/tmp";
  static int counter = 0;
  return std::string{dir} + "/lf_snapshot_" + std::to_string(::getpid()) +
         "_" + std::to_string(counter++) + suffix;
}

}  // namespace

bool compiler_available() {
  return std::system("gcc --version > /dev/null 2>&1") == 0;
}

compiled_snapshot compiled_snapshot::compile(const snapshot& snap) {
  return compile(emit_c_source(snap));
}

compiled_snapshot compiled_snapshot::compile(const std::string& c_source) {
  const std::string src_path = temp_path(".c");
  const std::string so_path = temp_path(".so");
  const std::string log_path = temp_path(".log");
  {
    std::ofstream os{src_path};
    if (!os) throw std::runtime_error{"cannot write " + src_path};
    os << c_source;
  }
  const std::string cmd = "gcc -O2 -shared -fPIC -o " + so_path + " " +
                          src_path + " 2> " + log_path;
  const int rc = std::system(cmd.c_str());
  std::remove(src_path.c_str());
  if (rc != 0) {
    std::ifstream log{log_path};
    std::string err((std::istreambuf_iterator<char>(log)),
                    std::istreambuf_iterator<char>());
    std::remove(log_path.c_str());
    throw std::runtime_error{"gcc failed to compile snapshot:\n" + err};
  }
  std::remove(log_path.c_str());

  compiled_snapshot snap;
  snap.so_path_ = so_path;
  snap.handle_ = ::dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!snap.handle_) {
    std::remove(so_path.c_str());
    throw std::runtime_error{std::string{"dlopen failed: "} + ::dlerror()};
  }
  snap.infer_fn_ = reinterpret_cast<int (*)(const long long*, long long*)>(
      ::dlsym(snap.handle_, "lf_nn_infer"));
  if (!snap.infer_fn_) {
    throw std::runtime_error{"lf_nn_infer not found in compiled snapshot"};
  }
  return snap;
}

compiled_snapshot::compiled_snapshot(compiled_snapshot&& other) noexcept
    : handle_{other.handle_}, infer_fn_{other.infer_fn_},
      so_path_{std::move(other.so_path_)} {
  other.handle_ = nullptr;
  other.infer_fn_ = nullptr;
  other.so_path_.clear();
}

compiled_snapshot& compiled_snapshot::operator=(
    compiled_snapshot&& other) noexcept {
  if (this != &other) {
    this->~compiled_snapshot();
    new (this) compiled_snapshot{std::move(other)};
  }
  return *this;
}

compiled_snapshot::~compiled_snapshot() {
  if (handle_) ::dlclose(handle_);
  if (!so_path_.empty()) std::remove(so_path_.c_str());
}

std::vector<fp::s64> compiled_snapshot::infer(std::span<const fp::s64> input,
                                              std::size_t output_size) const {
  std::vector<fp::s64> out(output_size, 0);
  infer_into(input, out);
  return out;
}

void compiled_snapshot::infer_into(std::span<const fp::s64> input,
                                   std::span<fp::s64> out) const {
  if (!infer_fn_) throw std::runtime_error{"compiled snapshot not loaded"};
  // The generated C uses `long long`; fp::s64 is int64_t (`long` on LP64).
  // Same width and representation, so the reinterpret is safe.
  static_assert(sizeof(fp::s64) == sizeof(long long));
  const int rc = infer_fn_(reinterpret_cast<const long long*>(input.data()),
                           reinterpret_cast<long long*>(out.data()));
  if (rc != 0) throw std::runtime_error{"lf_nn_infer returned error"};
}

}  // namespace lf::codegen
