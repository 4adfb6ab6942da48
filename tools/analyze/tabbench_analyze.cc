// tabbench_analyze — the project's static-analysis CLI.
//
// Usage:
//   tabbench_analyze [--root DIR] [--sarif FILE] [--fix]
//                    [--fault-coverage] [--check-fault-coverage FILE]
//                    [--list-rules] [paths...]
//
// Walks the given paths (default: src bench tests tools examples) under
// --root (default: cwd), builds one project model from every .h/.cc/.cpp
// file, and runs every pass (see analyzer.h). The architecture layers and
// the durability protocols are read from ROOT/tools/analyze/layers.txt and
// ROOT/tools/analyze/protocols.txt when those files exist.
//
// --fix applies the machine-applicable fixes to the source files on disk —
// the TB_GUARDED_BY annotations suggested by tabbench-lockset-unannotated
// and the canonical guards for tabbench-include-guard — and exits
// (idempotent; re-running changes nothing). --fault-coverage prints the
// TB_FAULT_POINT coverage report per layer and exits.
// --check-fault-coverage enforces the committed coverage floor
// (ROOT/tools/analyze/fault_layers.txt in CI): each listed layer must keep
// at least its recorded number of fault-point sites, so chaos-test
// coverage a layer once had can never silently regress to zero.
// --sarif additionally writes a SARIF 2.1.0 report for code-scanning UIs.
//
// Exit status: 0 clean, 1 when any finding exists, 2 on usage/I-O errors,
// including an output file (--sarif, --fix) that cannot be written in
// full.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
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

bool IsExcludedDir(const std::string& name) {
  return name == ".git" || name.rfind("build", 0) == 0;
}

void CollectFiles(const fs::path& root, const fs::path& rel,
                  std::vector<std::string>* out) {
  fs::path abs = root / rel;
  std::error_code ec;
  if (fs::is_regular_file(abs, ec)) {
    if (HasSourceExtension(abs)) out->push_back(rel.generic_string());
    return;
  }
  if (!fs::is_directory(abs, ec)) return;
  for (fs::recursive_directory_iterator it(abs, ec), end; it != end;
       it.increment(ec)) {
    if (ec) break;
    if (it->is_directory(ec)) {
      if (IsExcludedDir(it->path().filename().string())) {
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

/// Replaces `path` with `content`. The stream is checked after close, so a
/// failed write or flush (a full disk, /dev/full) is an error, not just a
/// failed open; on failure prints "cannot write <path>".
bool WriteFile(const fs::path& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  out.close();
  if (out) return true;
  std::cerr << "tabbench_analyze: cannot write " << path.string() << "\n";
  return false;
}

/// Parses ROOT/tools/analyze/<name> with `parse`. Returns false (after
/// printing why) when the file is missing, unreadable or malformed: a
/// missing spec would silently turn its pass off.
template <typename Spec, typename Parse>
bool LoadSpec(const std::string& root, const char* name, Parse parse,
              Spec* spec) {
  const fs::path path = fs::path(root) / "tools/analyze" / name;
  std::error_code ec;
  if (!fs::is_regular_file(path, ec)) {
    std::cerr << "tabbench_analyze: missing " << path.string() << "\n";
    return false;
  }
  std::string text, error;
  if (!ReadFile(path, &text)) {
    std::cerr << "tabbench_analyze: cannot read " << path.string() << "\n";
    return false;
  }
  if (!parse(text, spec, &error)) {
    std::cerr << "tabbench_analyze: " << error << "\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string sarif_file;
  bool fix = false;
  bool fault_coverage = false;
  std::string check_fault_file;  // --check-fault-coverage ratchet floor
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto flag_value = [&](const char* flag, std::string* out) {
      if (++i >= argc) {
        std::cerr << flag << " needs an argument\n";
        return false;
      }
      *out = argv[i];
      return true;
    };
    if (arg == "--root") {
      if (!flag_value("--root", &root)) return 2;
    } else if (arg == "--sarif") {
      if (!flag_value("--sarif", &sarif_file)) return 2;
    } else if (arg == "--fix") {
      fix = true;
    } else if (arg == "--fault-coverage") {
      fault_coverage = true;
    } else if (arg == "--check-fault-coverage") {
      if (!flag_value("--check-fault-coverage", &check_fault_file)) return 2;
    } else if (arg == "--list-rules") {
      for (const auto& rule : tabbench_analyze::Rules()) {
        std::cout << rule.name << "\n    " << rule.summary << "\n";
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: tabbench_analyze [--root DIR] [--sarif FILE] "
                   "[--fix] [--fault-coverage] "
                   "[--check-fault-coverage FILE] [--list-rules] "
                   "[paths...]\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown flag: " << arg << "\n";
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    paths = {"src", "bench", "tests", "tools", "examples"};
  }

  tabbench_analyze::Options options;
  if (!LoadSpec(root, "layers.txt", tabbench_analyze::ParseLayerSpec,
                &options.layers) ||
      !LoadSpec(root, "protocols.txt", tabbench_analyze::ParseProtocolSpec,
                &options.protocols)) {
    return 2;
  }

  std::vector<std::string> rel_files;
  for (const auto& p : paths) CollectFiles(root, p, &rel_files);
  if (rel_files.empty()) {
    std::cerr << "tabbench_analyze: no source files under " << root << "\n";
    return 2;
  }
  std::sort(rel_files.begin(), rel_files.end());
  rel_files.erase(std::unique(rel_files.begin(), rel_files.end()),
                  rel_files.end());

  std::vector<tabbench_analyze::SourceFile> files;
  files.reserve(rel_files.size());
  for (const auto& rel : rel_files) {
    std::string content;
    if (!ReadFile(fs::path(root) / rel, &content)) {
      std::cerr << "tabbench_analyze: cannot read " << rel << "\n";
      return 2;
    }
    files.push_back({rel, std::move(content)});
  }

  if (fault_coverage) {
    std::cout << tabbench_analyze::FaultCoverageReport(files,
                                                       options.layers);
    return 0;
  }

  if (!check_fault_file.empty()) {
    // CI ratchet: every layer listed in the floor file must keep at least
    // its recorded number of TB_FAULT_POINT sites (default 1) — a layer
    // that once had fault-injection coverage can never drop back to zero.
    std::string required;
    if (!ReadFile(check_fault_file, &required)) {
      std::cerr << "tabbench_analyze: cannot read " << check_fault_file
                << "\n";
      return 2;
    }
    const std::vector<std::string> violations =
        tabbench_analyze::CheckFaultCoverage(files, options.layers, required);
    if (violations.empty()) {
      std::cout << "fault-coverage ratchet OK (" << check_fault_file << ")\n";
      return 0;
    }
    for (const std::string& v : violations) {
      std::cerr << "fault-coverage ratchet: " << v << "\n";
    }
    return 1;
  }

  const std::vector<tabbench_analyze::Finding> findings =
      tabbench_analyze::Analyze(files, options);

  if (fix) {
    std::vector<std::string> before;
    before.reserve(files.size());
    for (const auto& f : files) before.push_back(f.content);
    const size_t applied = tabbench_analyze::ApplyFixes(findings, &files);
    size_t written = 0;
    for (size_t i = 0; i < files.size(); ++i) {
      if (files[i].content == before[i]) continue;
      if (!WriteFile(fs::path(root) / files[i].path, files[i].content)) {
        return 2;
      }
      ++written;
    }
    std::cout << "tabbench_analyze: applied " << applied
              << " fix(es) across " << written << " file(s)\n";
    return 0;
  }

  if (!sarif_file.empty() &&
      !WriteFile(sarif_file, tabbench_analyze::ToSarif(findings))) {
    return 2;
  }

  std::cout << tabbench_analyze::ToText(findings);
  std::cout << "tabbench_analyze: " << files.size() << " files, "
            << findings.size() << " finding(s)\n";
  return findings.empty() ? 0 : 1;
}
