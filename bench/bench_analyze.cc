// Times tabbench_analyze's full-tree run: every .h/.cc/.cpp under the
// repo through BuildModel plus every pass (the per-file rules, the
// whole-program passes and the path-sensitive CFG passes), repeated
// --iters times, and prints seconds per run and files per second. The
// point is keeping the analyzer fast enough to sit in the inner CI loop.
//
// Usage: bench_analyze [--root DIR] [--iters N]   (N a positive integer)

#include <charconv>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analyzer.h"

namespace fs = std::filesystem;

namespace {

bool HasSourceExtension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp";
}

void CollectFiles(const fs::path& root, const fs::path& rel,
                  std::vector<std::string>* out) {
  std::error_code ec;
  const fs::path abs = root / rel;
  if (!fs::is_directory(abs, ec)) return;
  for (fs::recursive_directory_iterator it(abs, ec), end; it != end;
       it.increment(ec)) {
    if (ec) break;
    if (it->is_directory(ec)) {
      const std::string name = it->path().filename().string();
      if (name == ".git" || name.rfind("build", 0) == 0) {
        it.disable_recursion_pending();
      }
      continue;
    }
    if (it->is_regular_file(ec) && HasSourceExtension(it->path())) {
      out->push_back(fs::relative(it->path(), root, ec).generic_string());
    }
  }
}

bool ReadFile(const fs::path& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

/// Parses a whole-string positive integer into *out.
bool ParsePositive(const std::string& text, size_t* out) {
  size_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || v == 0) return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  auto usage = [&] {
    std::fprintf(stderr, "usage: %s [--root DIR] [--iters N]\n", argv[0]);
    return 2;
  };
  std::string root = ".";
  size_t iters = 3;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--iters" && i + 1 < argc) {
      if (!ParsePositive(argv[++i], &iters)) {
        std::fprintf(stderr,
                     "bench_analyze: --iters must be a positive integer, "
                     "got '%s'\n",
                     argv[i]);
        return usage();
      }
    } else {
      return usage();
    }
  }

  std::vector<std::string> rel_files;
  for (const char* dir : {"src", "bench", "tests", "tools", "examples"}) {
    CollectFiles(root, dir, &rel_files);
  }
  if (rel_files.empty()) {
    std::fprintf(stderr, "bench_analyze: no source files under %s\n",
                 root.c_str());
    return 2;
  }
  std::vector<tabbench_analyze::SourceFile> files;
  files.reserve(rel_files.size());
  for (const std::string& rel : rel_files) {
    std::string content;
    if (!ReadFile(fs::path(root) / rel, &content)) {
      std::fprintf(stderr, "bench_analyze: cannot read %s\n", rel.c_str());
      return 2;
    }
    files.push_back({rel, std::move(content)});
  }

  tabbench_analyze::Options options;
  {
    std::string text, error;
    if (ReadFile(fs::path(root) / "tools/analyze/layers.txt", &text) &&
        !tabbench_analyze::ParseLayerSpec(text, &options.layers, &error)) {
      std::fprintf(stderr, "bench_analyze: %s\n", error.c_str());
      return 2;
    }
    if (ReadFile(fs::path(root) / "tools/analyze/protocols.txt", &text) &&
        !tabbench_analyze::ParseProtocolSpec(text, &options.protocols,
                                             &error)) {
      std::fprintf(stderr, "bench_analyze: %s\n", error.c_str());
      return 2;
    }
  }

  // One untimed warm-up run touches every code path (and faults the file
  // contents into cache), so the timed loop measures analysis, not I/O.
  size_t findings = tabbench_analyze::Analyze(files, options).size();

  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < iters; ++i) {
    findings = tabbench_analyze::Analyze(files, options).size();
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  const double per_run = wall / static_cast<double>(iters);
  const double files_per_second =
      per_run > 0.0 ? static_cast<double>(files.size()) / per_run : 0.0;
  std::printf(
      "analyze_full_tree: %zu files, %zu finding(s), %.3fs/run over %zu "
      "runs (%.0f files/s)\n",
      files.size(), findings, per_run, iters, files_per_second);

  return 0;
}
