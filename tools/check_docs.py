#!/usr/bin/env python3
"""Documentation checker: broken links, anchors, and bench citations.

Walks the repository's markdown documentation and verifies that

  1. every relative link points at a file or directory that exists,
  2. every anchor (``file.md#section`` or in-file ``#section``)
     resolves to a heading in the target document, using GitHub's
     heading-slug rules,
  3. every ``BENCH_<name>.json`` cited anywhere in the docs matches a
     bench binary that actually emits it (a ``Harness("<name>", ...)``
     construction in bench/*.cpp),
  4. every config symbol the docs cite as ``Struct::member`` (for the
     structs in CONFIG_HEADERS, e.g. ``ServeConfig::maxQueueDepth`` or
     ``ClusterConfig::keyCacheShare``) names an identifier that
     actually appears in the owning header — so the runbook cannot
     drift from the code it documents.

External links (http/https/mailto) are not fetched. Exits nonzero and
prints one line per problem, so it can run as a CI gate:

    python3 tools/check_docs.py
"""

import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Generated / imported documents whose links we do not control.
EXCLUDE = {"ISSUE.md", "SNIPPETS.md", "PAPERS.md", "PAPER.md"}

LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
HEADING_RE = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
FENCE_RE = re.compile(r"^(```|~~~)")
BENCH_CITE_RE = re.compile(r"BENCH_([A-Za-z0-9_]+)\.json")
HARNESS_RE = re.compile(r"Harness\s+\w+\s*\(\s*\"([^\"]+)\"")

# Config structs whose ``Struct::member`` doc citations must resolve
# to an identifier in the owning header (repo-relative paths).
CONFIG_HEADERS = {
    "ServeConfig": "src/serve/engine.h",
    "HealthConfig": "src/serve/health.h",
    "ClusterConfig": "src/cluster/cluster.h",
    "AutoscaleConfig": "src/cluster/cluster.h",
    "ClusterStats": "src/cluster/cluster.h",
    "HwConfig": "src/hw/config.h",
}
CONFIG_CITE_RE = re.compile(
    r"\b(" + "|".join(CONFIG_HEADERS) + r")::(\w+)")


def doc_files():
    out = []
    for base, dirs, files in os.walk(REPO):
        dirs[:] = [d for d in dirs
                   if not d.startswith(".") and d != "build"]
        for f in sorted(files):
            if f.endswith(".md") and f not in EXCLUDE:
                out.append(os.path.join(base, f))
    return sorted(out)


def github_slug(heading):
    """GitHub's anchor slug for a heading line."""
    # Strip inline code/links down to their text first.
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", heading)
    text = text.replace("`", "").strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def headings_of(path, cache={}):
    if path not in cache:
        slugs, seen = set(), {}
        in_fence = False
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if FENCE_RE.match(line):
                    in_fence = not in_fence
                    continue
                if in_fence:
                    continue
                m = HEADING_RE.match(line)
                if not m:
                    continue
                slug = github_slug(m.group(2))
                n = seen.get(slug, 0)
                seen[slug] = n + 1
                slugs.add(slug if n == 0 else f"{slug}-{n}")
        cache[path] = slugs
    return cache[path]


def bench_names():
    names = set()
    bench_dir = os.path.join(REPO, "bench")
    for f in sorted(os.listdir(bench_dir)):
        if not f.endswith(".cpp"):
            continue
        with open(os.path.join(bench_dir, f), encoding="utf-8") as fh:
            names.update(HARNESS_RE.findall(fh.read()))
    return names


def header_symbols(relpath, cache={}):
    """Identifiers appearing in a source header (grep-level check)."""
    if relpath not in cache:
        path = os.path.join(REPO, relpath)
        try:
            with open(path, encoding="utf-8") as fh:
                cache[relpath] = set(re.findall(r"\w+", fh.read()))
        except OSError:
            cache[relpath] = None  # header missing: reported once
    return cache[relpath]


def check_config_cites(rel, lineno, line, problems):
    for struct, member in CONFIG_CITE_RE.findall(line):
        header = CONFIG_HEADERS[struct]
        symbols = header_symbols(header)
        if symbols is None:
            problems.append(
                f"{rel}:{lineno}: cites {struct}::{member} but "
                f"{header} does not exist")
        elif member not in symbols:
            problems.append(
                f"{rel}:{lineno}: cites {struct}::{member} but "
                f"'{member}' does not appear in {header}")


def iter_links(path):
    """(lineno, target) for every markdown link outside code fences."""
    in_fence = False
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if FENCE_RE.match(line):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            # Drop inline code spans: paths in backticks are prose.
            stripped = re.sub(r"`[^`]*`", "", line)
            for m in LINK_RE.finditer(stripped):
                yield lineno, m.group(1)


def check_link(doc, target):
    """Error string for a broken link, or None."""
    if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # http:, mailto:, ...
        return None
    path_part, _, anchor = target.partition("#")
    if path_part:
        dest = os.path.normpath(
            os.path.join(os.path.dirname(doc), path_part))
        if not os.path.exists(dest):
            return f"broken link: {target} (no such file)"
    else:
        dest = doc
    if anchor:
        if not dest.endswith(".md") or not os.path.isfile(dest):
            return None  # anchors into non-markdown: not checkable
        if anchor not in headings_of(dest):
            return (f"broken anchor: {target} "
                    f"(no heading '#{anchor}' in "
                    f"{os.path.relpath(dest, REPO)})")
    return None


def main():
    problems = []
    known_benches = bench_names()
    docs = doc_files()
    links = 0
    for doc in docs:
        rel = os.path.relpath(doc, REPO)
        for lineno, target in iter_links(doc):
            links += 1
            err = check_link(doc, target)
            if err:
                problems.append(f"{rel}:{lineno}: {err}")
        with open(doc, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                for name in BENCH_CITE_RE.findall(line):
                    if name not in known_benches:
                        problems.append(
                            f"{rel}:{lineno}: cites BENCH_{name}.json "
                            f"but no bench constructs "
                            f"Harness(\"{name}\")")
                check_config_cites(rel, lineno, line, problems)
    for p in problems:
        print(p)
    print(f"check_docs: {len(docs)} documents, {links} links, "
          f"{len(known_benches)} bench names, "
          f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
