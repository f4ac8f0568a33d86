// gen_obs_docs -- keeps docs/OBSERVABILITY.md in sync with the code's
// span/metric catalog, and validates intra-repo markdown links.
//
//   gen_obs_docs --print spans|metrics      render one catalog section
//   gen_obs_docs --update [FILE]            rewrite the generated sections
//                                           (between the BEGIN/END GENERATED
//                                           markers) in FILE
//   gen_obs_docs --check [FILE]             exit 1 if the generated sections
//                                           are stale (the docs gate)
//   gen_obs_docs --check-links FILE...      exit 1 on broken relative links,
//                                           missing #anchors, or backticked
//                                           repository paths that do not
//                                           exist in the given markdown files
//                                           (run from the repository root)
//
// FILE defaults to docs/OBSERVABILITY.md. The generated sections are
// rendered from the same obs::SpanDesc/obs::MetricDesc instances the
// instrumentation registers, so the documented catalog cannot drift from
// the code: adding a metric without re-running --update fails the gate.
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/catalog.hpp"

namespace {

namespace fs = std::filesystem;
using drbml::obs::render_metric_catalog_md;
using drbml::obs::render_span_catalog_md;

constexpr const char* kDefaultDoc = "docs/OBSERVABILITY.md";

int usage() {
  std::fprintf(stderr,
               "usage: gen_obs_docs --print spans|metrics\n"
               "       gen_obs_docs --update [FILE]\n"
               "       gen_obs_docs --check [FILE]\n"
               "       gen_obs_docs --check-links FILE...\n");
  return 2;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return false;
  std::ostringstream ss;
  ss << file.rdbuf();
  out = ss.str();
  return true;
}

std::string begin_marker(const std::string& section) {
  return "<!-- BEGIN GENERATED: " + section + " -->";
}

std::string end_marker(const std::string& section) {
  return "<!-- END GENERATED: " + section + " -->";
}

/// Replaces the payload between the section's markers. Returns false if
/// either marker is missing or out of order.
bool splice_section(std::string& doc, const std::string& section,
                    const std::string& payload) {
  const std::string begin = begin_marker(section);
  const std::string end = end_marker(section);
  const std::size_t b = doc.find(begin);
  if (b == std::string::npos) return false;
  const std::size_t content = b + begin.size();
  const std::size_t e = doc.find(end, content);
  if (e == std::string::npos) return false;
  doc = doc.substr(0, content) + "\n" + payload + doc.substr(e);
  return true;
}

std::string rendered(const std::string& section) {
  return section == "spans" ? render_span_catalog_md()
                            : render_metric_catalog_md();
}

int update_doc(const std::string& path, bool check_only) {
  std::string doc;
  if (!read_file(path, doc)) {
    std::fprintf(stderr, "gen_obs_docs: cannot read %s\n", path.c_str());
    return 2;
  }
  std::string updated = doc;
  for (const char* section : {"spans", "metrics"}) {
    if (!splice_section(updated, section, rendered(section))) {
      std::fprintf(stderr, "gen_obs_docs: %s: missing '%s' markers\n",
                   path.c_str(), section);
      return 2;
    }
  }
  if (updated == doc) {
    std::printf("gen_obs_docs: %s is current\n", path.c_str());
    return 0;
  }
  if (check_only) {
    std::fprintf(stderr,
                 "gen_obs_docs: %s is STALE -- run gen_obs_docs --update %s\n",
                 path.c_str(), path.c_str());
    return 1;
  }
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) {
    std::fprintf(stderr, "gen_obs_docs: cannot write %s\n", path.c_str());
    return 2;
  }
  file << updated;
  std::printf("gen_obs_docs: updated %s\n", path.c_str());
  return 0;
}

// ------------------------------------------------------------ link checker

/// GitHub-style heading anchor: lowercase; keep alphanumerics, hyphens,
/// and underscores; spaces become hyphens; everything else (punctuation,
/// backticks) is dropped.
std::string heading_slug(const std::string& heading) {
  std::string slug;
  for (char c : heading) {
    const auto u = static_cast<unsigned char>(c);
    if (std::isalnum(u) != 0 || c == '-' || c == '_') {
      slug += static_cast<char>(std::tolower(u));
    } else if (c == ' ') {
      slug += '-';
    }
  }
  return slug;
}

/// All anchors a markdown file defines (heading slugs with GitHub's -N
/// suffixing for duplicates).
std::set<std::string> collect_anchors(const std::string& text) {
  std::set<std::string> anchors;
  std::istringstream lines(text);
  std::string line;
  bool in_fence = false;
  while (std::getline(lines, line)) {
    if (line.rfind("```", 0) == 0) {
      in_fence = !in_fence;
      continue;
    }
    if (in_fence || line.empty() || line[0] != '#') continue;
    std::size_t level = 0;
    while (level < line.size() && line[level] == '#') ++level;
    if (level >= line.size() || line[level] != ' ') continue;
    const std::string base = heading_slug(line.substr(level + 1));
    if (anchors.insert(base).second) continue;
    for (int n = 1;; ++n) {
      const std::string dedup = base + "-" + std::to_string(n);
      if (anchors.insert(dedup).second) break;
    }
  }
  return anchors;
}

struct Link {
  std::string target;
  int line;
};

/// Extracts [text](target) links, skipping fenced code blocks and inline
/// code spans.
std::vector<Link> collect_links(const std::string& text) {
  std::vector<Link> links;
  std::istringstream lines(text);
  std::string line;
  int lineno = 0;
  bool in_fence = false;
  while (std::getline(lines, line)) {
    ++lineno;
    if (line.rfind("```", 0) == 0) {
      in_fence = !in_fence;
      continue;
    }
    if (in_fence) continue;
    bool in_code = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
      if (line[i] == '`') {
        in_code = !in_code;
        continue;
      }
      if (in_code || line[i] != ']' || i + 1 >= line.size() ||
          line[i + 1] != '(') {
        continue;
      }
      const std::size_t close = line.find(')', i + 2);
      if (close == std::string::npos) continue;
      links.push_back({line.substr(i + 2, close - i - 2), lineno});
    }
  }
  return links;
}

/// Extracts inline code spans that name a repository path: no spaces, no
/// glob or placeholder characters, and a first component that is a
/// directory at the repository root (`src/...`, `tests/...`). Build
/// output directories and dot-directories are not checked. A trailing
/// `:line` or `:line-line` suffix is dropped.
std::vector<Link> collect_repo_paths(const std::string& text,
                                     const fs::path& root) {
  std::vector<Link> paths;
  std::istringstream lines(text);
  std::string line;
  int lineno = 0;
  bool in_fence = false;
  while (std::getline(lines, line)) {
    ++lineno;
    if (line.rfind("```", 0) == 0) {
      in_fence = !in_fence;
      continue;
    }
    if (in_fence) continue;
    std::size_t open = line.find('`');
    while (open != std::string::npos) {
      const std::size_t close = line.find('`', open + 1);
      if (close == std::string::npos) break;
      std::string span = line.substr(open + 1, close - open - 1);
      open = line.find('`', close + 1);
      const std::size_t slash = span.find('/');
      if (slash == std::string::npos || slash == 0 ||
          span.find_first_of(" *{}<>|$") != std::string::npos) {
        continue;
      }
      const std::string first = span.substr(0, slash);
      if (first[0] == '.' || first.rfind("build", 0) == 0 ||
          !fs::is_directory(root / first)) {
        continue;
      }
      if (const std::size_t colon = span.find(':');
          colon != std::string::npos) {
        span.resize(colon);
      }
      paths.push_back({span, lineno});
    }
  }
  return paths;
}

/// True when `p` names a file or directory, or the stem of a source file
/// (`bench/bench_table2` for the bench_table2 target, `src/llm/finetune`
/// for the finetune module).
bool repo_path_exists(const fs::path& p) {
  if (fs::exists(p)) return true;
  for (const char* ext : {".cpp", ".hpp", ".inc"}) {
    if (fs::exists(fs::path(p).concat(ext))) return true;
  }
  return false;
}

bool is_external(const std::string& target) {
  return target.rfind("http://", 0) == 0 || target.rfind("https://", 0) == 0 ||
         target.rfind("mailto:", 0) == 0;
}

int check_links(const std::vector<std::string>& paths) {
  // Backticked repository paths resolve against the working directory,
  // which must be the repository root (scripts/check.sh runs from it).
  const fs::path root = fs::current_path();
  int broken = 0;
  for (const std::string& path : paths) {
    std::string text;
    if (!read_file(path, text)) {
      std::fprintf(stderr, "gen_obs_docs: cannot read %s\n", path.c_str());
      return 2;
    }
    const fs::path dir = fs::path(path).parent_path();
    for (const Link& p : collect_repo_paths(text, root)) {
      if (!repo_path_exists(root / p.target)) {
        std::fprintf(stderr, "%s:%d: stale path `%s` (no such file)\n",
                     path.c_str(), p.line, p.target.c_str());
        ++broken;
      }
    }
    const std::set<std::string> own_anchors = collect_anchors(text);
    for (const Link& link : collect_links(text)) {
      if (is_external(link.target) || link.target.empty()) continue;
      std::string file_part = link.target;
      std::string anchor;
      const std::size_t hash = link.target.find('#');
      if (hash != std::string::npos) {
        file_part = link.target.substr(0, hash);
        anchor = link.target.substr(hash + 1);
      }
      if (file_part.empty()) {
        if (own_anchors.count(anchor) == 0) {
          std::fprintf(stderr, "%s:%d: broken anchor '#%s'\n", path.c_str(),
                       link.line, anchor.c_str());
          ++broken;
        }
        continue;
      }
      const fs::path target = dir / file_part;
      if (!fs::exists(target)) {
        std::fprintf(stderr, "%s:%d: broken link '%s' (no such file)\n",
                     path.c_str(), link.line, link.target.c_str());
        ++broken;
        continue;
      }
      if (!anchor.empty()) {
        std::string target_text;
        if (!read_file(target.string(), target_text)) continue;
        if (collect_anchors(target_text).count(anchor) == 0) {
          std::fprintf(stderr, "%s:%d: broken anchor '%s'\n", path.c_str(),
                       link.line, link.target.c_str());
          ++broken;
        }
      }
    }
  }
  if (broken > 0) {
    std::fprintf(stderr, "gen_obs_docs: %d broken link(s)\n", broken);
    return 1;
  }
  std::printf("gen_obs_docs: links ok (%zu file(s))\n", paths.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage();
  const std::string& mode = args[0];
  if (mode == "--print") {
    if (args.size() != 2 || (args[1] != "spans" && args[1] != "metrics")) {
      return usage();
    }
    std::printf("%s", rendered(args[1]).c_str());
    return 0;
  }
  if (mode == "--update" || mode == "--check") {
    if (args.size() > 2) return usage();
    const std::string path = args.size() == 2 ? args[1] : kDefaultDoc;
    return update_doc(path, mode == "--check");
  }
  if (mode == "--check-links") {
    if (args.size() < 2) return usage();
    return check_links({args.begin() + 1, args.end()});
  }
  return usage();
}
