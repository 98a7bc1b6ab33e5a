#!/usr/bin/env bash
# Documentation drift check: fail if any doc contains a dead relative
# markdown link, a backticked path to a file that does not exist, a
# backticked symbol that appears nowhere in the code, or a backticked
# snake_case identifier (two or more underscores, e.g. a function name)
# that appears nowhere in the code outside `//` comments, or a backticked
# `Struct::member` whose struct is defined in src/ but does not declare that
# member in its body — and, in the other direction, if the runtime emits a counter/gauge/histogram/series name
# that docs/observability.md does not list. Run by verify.sh; cheap
# enough to run on every commit.
set -euo pipefail
cd "$(dirname "$0")/.."

python3 - <<'PYEOF'
import glob as globmod
import os
import re
import sys

DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md"] + sorted(
    os.path.join("docs", f) for f in os.listdir("docs") if f.endswith(".md")
)

# Code corpus for symbol lookups.
CORPUS_DIRS = ["src", "tests", "bench", "examples", "scripts"]
corpus = []
for d in CORPUS_DIRS:
    for root, _, files in os.walk(d):
        for f in files:
            if f.endswith((".h", ".cpp", ".cmake", ".txt", ".sh")):
                with open(os.path.join(root, f), errors="replace") as fh:
                    corpus.append(fh.read())
with open("CMakeLists.txt", errors="replace") as fh:
    corpus.append(fh.read())
corpus = "\n".join(corpus)

# Code with `//` comments stripped, perfbench/ included: a function that was
# deleted but is still named in a comment must not count as existing.
code_only = []
code_files = ["CMakeLists.txt"] + [
    os.path.join(root, f)
    for d in CORPUS_DIRS + ["perfbench"]
    for root, _, files in os.walk(d)
    for f in files
    if f.endswith((".h", ".cpp", ".cmake", ".txt", ".sh", ".py"))
]
for path in code_files:
    with open(path, errors="replace") as fh:
        code_only.extend(line.split("//", 1)[0] for line in fh)
code_only = "\n".join(code_only)

# Bodies of every `struct` defined in src/, comments stripped: a doc naming
# `Struct::member` must name a member the struct still declares.
STRUCT_RE = re.compile(r"\bstruct\s+([A-Za-z_][A-Za-z0-9_]*)\s*(?:final\s*)?"
                       r"(?::[^{;()]*)?\{")
struct_bodies = {}
for root, _, files in os.walk("src"):
    for f in files:
        if not f.endswith((".h", ".cpp")):
            continue
        with open(os.path.join(root, f), errors="replace") as fh:
            src = re.sub(r"/\*.*?\*/", " ", fh.read(), flags=re.S)
        src = re.sub(r"//[^\n]*", "", src)
        for m in STRUCT_RE.finditer(src):
            depth, end = 1, m.end()
            while depth and end < len(src):
                depth += {"{": 1, "}": -1}.get(src[end], 0)
                end += 1
            struct_bodies.setdefault(m.group(1), []).append(src[m.end():end])

# Runtime outputs and globs are not repo files; only these extensions are
# expected to exist in the tree.
CHECKED_EXTS = (".h", ".cpp", ".md", ".sh", ".cmake")

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
TICK_RE = re.compile(r"`([^`\n]+)`")
PATHISH_RE = re.compile(r"^[A-Za-z0-9_.{},/\-]+$")
QUALIFIED_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)+(\(\))?$")
TEST_RE = re.compile(r"^[A-Z][A-Za-z0-9_]*\.[A-Z][A-Za-z0-9_]*$")
CAMEL_RE = re.compile(r"^[A-Z][a-z][A-Za-z0-9]{4,}$")
SNAKE_RE = re.compile(r"^([a-z][a-z0-9]*(?:_[a-z0-9]+){2,})(\(\))?$")


def strip_fences(text):
    out, fenced = [], False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            fenced = not fenced
            continue
        if not fenced:
            out.append(line)
    return "\n".join(out)


def expand_braces(token):
    """bench/fig4_{linear,kernel}_{horizontal,vertical} -> 4 tokens."""
    m = re.search(r"\{([^{}]*,[^{}]*)\}", token)
    if not m:
        return [token]
    head, tail = token[: m.start()], token[m.end():]
    return [
        e
        for alt in m.group(1).split(",")
        for e in expand_braces(head + alt + tail)
    ]


# Directories a path-ish token may plausibly start in. Tokens whose first
# segment is none of these and that carry no checked extension are treated
# as math/notation (e.g. `rho/M`), not file references.
KNOWN_ROOTS = {"src", "docs", "tests", "bench", "examples", "scripts", "build"}
KNOWN_ROOTS |= {d for d in os.listdir("src") if os.path.isdir(os.path.join("src", d))}


def path_exists(token):
    for e in expand_braces(token):
        _, ext = os.path.splitext(e)
        if ext and ext not in CHECKED_EXTS:
            return True  # runtime output (json/csv/png/...) — not checked
        if not ext and "/" in e and e.split("/", 1)[0] not in KNOWN_ROOTS:
            return True  # notation, not a path
        cands = [e, os.path.join("src", e), os.path.join("docs", e)]
        cands += globmod.glob(os.path.join("src", "*", e))
        if not ext:
            cands += [c + x for c in list(cands) for x in (".h", ".cpp")]
        if not any(os.path.exists(c) for c in cands):
            return False
    return True


def symbol_exists(name):
    return re.search(r"\b%s\b" % re.escape(name), corpus) is not None


errors = []
snake_checked = 0
members_checked = 0
for doc in DOCS:
    if not os.path.exists(doc):
        continue
    with open(doc) as fh:
        text = strip_fences(fh.read())
    docdir = os.path.dirname(doc)

    for m in LINK_RE.finditer(text):
        target = m.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        target = target.split("#", 1)[0]
        if not target:
            continue
        if not os.path.exists(os.path.normpath(os.path.join(docdir, target))):
            errors.append(f"{doc}: dead link -> {m.group(1)}")

    for m in TICK_RE.finditer(text):
        token = m.group(0)[1:-1].strip().rstrip(".,;:")
        if not token or " " in token or "*" in token:
            continue
        qm = QUALIFIED_RE.match(token)
        if qm:
            parts = token.rstrip("()").split("::")
            leaf = parts[-1]
            if not symbol_exists(leaf):
                errors.append(f"{doc}: unknown symbol -> {token}")
            elif parts[-2] in struct_bodies:
                members_checked += 1
                if not any(re.search(r"\b%s\b" % re.escape(leaf), body)
                           for body in struct_bodies[parts[-2]]):
                    errors.append(f"{doc}: {parts[-2]} has no member -> {token}")
            continue
        sm = SNAKE_RE.match(token)
        if sm:
            snake_checked += 1
            if not re.search(r"\b%s\b" % sm.group(1), code_only):
                errors.append(f"{doc}: unknown identifier -> {token}")
            continue
        if TEST_RE.match(token):
            suite, name = token.split(".", 1)
            if not (symbol_exists(suite) and symbol_exists(name)):
                errors.append(f"{doc}: unknown test -> {token}")
            continue
        if "/" in token and PATHISH_RE.match(token):
            if not path_exists(token):
                errors.append(f"{doc}: missing file -> {token}")
            continue
        _, ext = os.path.splitext(token)
        if ext in CHECKED_EXTS and PATHISH_RE.match(token):
            if not path_exists(token):
                errors.append(f"{doc}: missing file -> {token}")
            continue
        if CAMEL_RE.match(token) and not symbol_exists(token):
            errors.append(f"{doc}: unknown symbol -> {token}")

# Reverse drift: every literal dotted metric name the runtime emits must
# be documented in docs/observability.md. Doc entries may use `{a,b}`
# brace alternation and `<placeholder>` segments; bare `x.*` tokens are
# prose shorthand, not documentation of a concrete name. Only src/ is
# scanned — tests and benches mint synthetic names on purpose.
EMIT_RE = re.compile(
    r"\b(?:count_for|count_if_enabled|count|gauge|observe|append|add|"
    r"increment|party_counter|declare_histogram)\s*\(\s*\""
    r"([a-z][a-z0-9_]*(?:\.[a-z0-9_]+)+)\"")
emitted = set()
for root, _, files in os.walk("src"):
    for f in files:
        if f.endswith((".h", ".cpp")):
            with open(os.path.join(root, f), errors="replace") as fh:
                emitted |= set(EMIT_RE.findall(fh.read()))

with open(os.path.join("docs", "observability.md")) as fh:
    obs_doc = fh.read()
documented, doc_patterns = set(), []
for m in TICK_RE.finditer(obs_doc):
    token = m.group(1).strip().rstrip(".,;:")
    if "*" in token or "." not in token:
        continue
    if not re.fullmatch(r"[a-z0-9_{},.<>]+", token):
        continue
    for t in expand_braces(token):
        if "<" in t:
            pat = re.sub(r"<[^>]+>", "\x00", t)
            doc_patterns.append(re.compile(
                re.escape(pat).replace("\x00", r"[a-z0-9_]+")))
        else:
            documented.add(t)
for name in sorted(emitted):
    if name in documented:
        continue
    if any(p.fullmatch(name) for p in doc_patterns):
        continue
    errors.append(f"docs/observability.md: undocumented metric -> {name}")

if errors:
    for e in errors:
        print(e, file=sys.stderr)
    print(f"check_docs: {len(errors)} problem(s)", file=sys.stderr)
    sys.exit(1)
print(f"check_docs: OK ({len(DOCS)} docs, "
      f"{snake_checked} snake_case identifiers, "
      f"{members_checked} struct members)")
PYEOF
