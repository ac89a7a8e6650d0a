#!/usr/bin/env python3
"""Fails CI on dead relative links and stale CLI flags in the markdown docs.

Scans README.md, ROADMAP.md, CHANGES.md and docs/*.md for markdown links
and inline `path` references to repo files, and verifies every relative
link target exists. External links (http/https/mailto) are not fetched —
this gate is about keeping the internal doc graph (README → docs/ →
docs/) unbroken as files move.

Second check: every `--flag` of a `hacksim_run` invocation inside a fenced
code block in README.md or docs/*.md must be a flag that
tools/hacksim_run.cc parses, and every value given to an enumerated flag
(`--proto`, `--standard`, `--hack`, `--topology`) must be one the runner
accepts. The flag table is read statically from the parser's
`ParseFlag(argv[i], "name", ...)` and `std::strcmp(argv[i], "--name")`
calls, and the accepted values from its `Choose<T>("name", ...)` tables,
so no build is needed.

Third check: every `*.md` file named in the code under src/, bench/,
tests/ and tools/ (a comment's "see docs/qos.md", a printed pointer) must
exist — as a path from the repo root or from the citing file (a bare
name is thus a top-level file or a sibling). This script is skipped: its
self-test fixtures name files that exist only in temporary trees.

Fourth check: every `Struct::field` that README.md or docs/*.md cites for
one of the config and stats structs (WifiMacConfig, ScenarioConfig,
MacStats, HackAgentConfig, TcpConfig) must name a field declared in that
struct under src/. Only the first component of a dotted path is checked
(`ScenarioConfig::hack_config.ack_policy` checks `hack_config`).

Usage: python3 tools/check_doc_links.py [repo_root]
Exit 0 if every relative link resolves, every documented flag and
enumerated value exists, every cited doc exists and every cited struct
field is declared, 1 otherwise (one line per dead link, unknown flag,
unknown value, missing doc or unknown field: file, line, target).

python3 tools/check_doc_links.py --self-test exercises both branches of
every check on synthetic trees (a clean tree must pass; a dead link, a
bogus hacksim_run flag, a bogus enumerated value, a code comment citing
a missing doc and a doc citing a missing struct field must each fail) and
exits 0 iff all behave.
"""

import pathlib
import re
import sys

# [text](target) — target captured up to the closing paren; markdown in
# our docs never nests parens inside link targets.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

SKIP_SCHEMES = ("http://", "https://", "mailto:", "#")

# The runner's flag table: valued flags go through ParseFlag, switches
# through strcmp.
PARSE_FLAG_RE = re.compile(r'ParseFlag\(argv\[i\], "([a-z0-9-]+)"')
SWITCH_RE = re.compile(r'strcmp\(argv\[i\], "(--[a-z0-9-]+)"\)')
DOC_FLAG_RE = re.compile(r"(?<![\w-])(--[a-z][a-z0-9-]*)")
# Enumerated flags: Choose<T>("name", flags.name, {{"value", ...}, ...});
CHOOSE_RE = re.compile(r'Choose<[^>]*>\(\s*"([a-z0-9-]+)",(.*?)\);', re.S)
CHOICE_RE = re.compile(r'\{"([^"]+)",')
DOC_VALUE_RE = re.compile(r"(?<![\w-])(--[a-z][a-z0-9-]*)=([^\s'\"]+)")
# A doc file named in code: docs/qos.md, PAPERS.md, ...
CITED_DOC_RE = re.compile(r"(?<![\w./-])([\w./-]*\w\.md)\b")
CODE_DIRS = ("src", "bench", "tests", "tools")
# Structs whose fields the docs cite as Struct::field.
CITED_STRUCTS = ("WifiMacConfig", "ScenarioConfig", "MacStats",
                 "HackAgentConfig", "TcpConfig")
CITED_FIELD_RE = re.compile(
    r"\b(" + "|".join(CITED_STRUCTS) + r")::([A-Za-z_]\w*)")
# Top-level struct statements that declare no data member.
NOT_FIELD_PREFIXES = ("friend ", "using ", "static ", "typedef ", "struct ",
                      "enum ", "class ")


def doc_files(root: pathlib.Path):
    for name in ("README.md", "ROADMAP.md", "CHANGES.md"):
        p = root / name
        if p.exists():
            yield p
    yield from sorted((root / "docs").glob("*.md"))


def runner_flags(root: pathlib.Path):
    src = (root / "tools" / "hacksim_run.cc").read_text(encoding="utf-8")
    return ({"--" + name for name in PARSE_FLAG_RE.findall(src)}
            | set(SWITCH_RE.findall(src)))


def runner_choices(root: pathlib.Path):
    """{"--flag": {accepted values}} for the runner's enumerated flags."""
    src = (root / "tools" / "hacksim_run.cc").read_text(encoding="utf-8")
    return {"--" + name: set(CHOICE_RE.findall(body))
            for name, body in CHOOSE_RE.findall(src)}


def hacksim_run_invocations(text: str):
    """Yields (line number, command text) per hacksim_run invocation in a
    fenced code block; backslash continuations join onto the command."""
    in_fence = False
    command, start = None, 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            command = None
            continue
        if not in_fence:
            continue
        if command is None:
            at = line.find("hacksim_run")
            if at < 0:
                continue
            command, start = line[at + len("hacksim_run"):], lineno
        else:
            command += " " + line
        if command.rstrip().endswith("\\"):
            command = command.rstrip()[:-1]
            continue
        # A trailing comment is prose, not flags.
        yield start, command.split(" #", 1)[0]
        command = None


def check_flags(root: pathlib.Path) -> int:
    known = runner_flags(root)
    choices = runner_choices(root)
    unknown = []
    bad_values = []
    checked = 0
    docs = [root / "README.md"] + sorted((root / "docs").glob("*.md"))
    for doc in docs:
        if not doc.exists():
            continue
        text = doc.read_text(encoding="utf-8")
        for lineno, command in hacksim_run_invocations(text):
            for flag in DOC_FLAG_RE.findall(command):
                checked += 1
                if flag not in known:
                    unknown.append((doc.relative_to(root), lineno, flag))
            for flag, value in DOC_VALUE_RE.findall(command):
                if flag in choices and value not in choices[flag]:
                    bad_values.append(
                        (doc.relative_to(root), lineno, f"{flag}={value}"))
    for doc, lineno, flag in unknown:
        print(f"UNKNOWN FLAG {doc}:{lineno}: hacksim_run {flag}")
    for doc, lineno, arg in bad_values:
        print(f"UNKNOWN VALUE {doc}:{lineno}: hacksim_run {arg}")
    failed = unknown or bad_values
    print(
        f"doc flag check: {checked} hacksim_run flags against "
        f"{len(known)} known, {len(unknown)} unknown; "
        f"{len(bad_values)} unknown values of {len(choices)} enumerated flags"
        + (" — FAILED" if failed else "")
    )
    return 1 if failed else 0


def check(root: pathlib.Path) -> int:
    dead = []
    checked = 0
    for doc in doc_files(root):
        for lineno, line in enumerate(
            doc.read_text(encoding="utf-8").splitlines(), start=1
        ):
            for target in LINK_RE.findall(line):
                if target.startswith(SKIP_SCHEMES):
                    continue
                # Strip an anchor: header anchors aren't validated, only
                # the file half of the link.
                path_part = target.split("#", 1)[0]
                if not path_part:
                    continue
                checked += 1
                resolved = (doc.parent / path_part).resolve()
                if not resolved.exists():
                    dead.append((doc.relative_to(root), lineno, target))
    for doc, lineno, target in dead:
        print(f"DEAD LINK {doc}:{lineno}: ({target})")
    print(
        f"doc link check: {checked} relative links, {len(dead)} dead"
        + (" — FAILED" if dead else "")
    )
    return 1 if dead else 0


def check_cited_docs(root: pathlib.Path) -> int:
    missing = []
    checked = 0
    for top in CODE_DIRS:
        for path in sorted((root / top).rglob("*")):
            if not path.is_file() or path.name == pathlib.Path(__file__).name:
                continue
            try:
                text = path.read_text(encoding="utf-8")
            except UnicodeDecodeError:
                continue
            for lineno, line in enumerate(text.splitlines(), start=1):
                for cited in CITED_DOC_RE.findall(line):
                    checked += 1
                    if not ((root / cited).exists()
                            or (path.parent / cited).exists()):
                        missing.append((path.relative_to(root), lineno, cited))
    for path, lineno, cited in missing:
        print(f"MISSING DOC {path}:{lineno}: {cited}")
    print(f"cited doc check: {checked} *.md names in code, {len(missing)} "
          "missing" + (" — FAILED" if missing else ""))
    return 1 if missing else 0


def top_level_statements(body: str):
    """Yields the statements directly inside a struct body (comments
    stripped, whitespace collapsed); method bodies are skipped."""
    depth, statement = 0, ""
    for ch in body:
        depth += {"{": 1, "}": -1}.get(ch, 0)
        statement += ch
        if depth == 0 and ch == "}" and "(" in statement.split("{", 1)[0]:
            statement = ""  # an inline method body just closed
        elif depth == 0 and ch == ";":
            yield " ".join(statement[:-1].split())
            statement = ""


def struct_fields(root: pathlib.Path):
    """{"Struct": {field names}} for CITED_STRUCTS, read from the headers
    under src/: the data members declared at the top level of each struct
    body (methods, friends, nested types and aliases excluded)."""
    fields = {}
    for header in sorted((root / "src").rglob("*.h")):
        text = header.read_text(encoding="utf-8")
        text = "\n".join(line.split("//", 1)[0] for line in text.splitlines())
        for name in CITED_STRUCTS:
            at = text.find(f"struct {name} {{")
            if at < 0:
                continue
            body_start = text.index("{", at) + 1
            depth, end = 1, body_start
            while depth:
                depth += {"{": 1, "}": -1}.get(text[end], 0)
                end += 1
            names = fields.setdefault(name, set())
            for statement in top_level_statements(text[body_start:end - 1]):
                if statement.startswith(NOT_FIELD_PREFIXES):
                    continue
                declarator = re.split(r"=|\{", statement, maxsplit=1)[0]
                match = re.search(r"([A-Za-z_]\w*)\s*$", declarator)
                if "(" not in declarator and match:
                    names.add(match.group(1))
    return fields


def check_cited_fields(root: pathlib.Path) -> int:
    fields = struct_fields(root)
    unknown = []
    checked = 0
    docs = [root / "README.md"] + sorted((root / "docs").glob("*.md"))
    for doc in docs:
        if not doc.exists():
            continue
        text = doc.read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), start=1):
            for struct, field in CITED_FIELD_RE.findall(line):
                checked += 1
                if field not in fields.get(struct, set()):
                    unknown.append(
                        (doc.relative_to(root), lineno, f"{struct}::{field}"))
    for doc, lineno, cited in unknown:
        print(f"UNKNOWN FIELD {doc}:{lineno}: {cited}")
    print(f"cited field check: {checked} Struct::field citations, "
          f"{len(unknown)} unknown"
          + (" — FAILED" if unknown else ""))
    return 1 if unknown else 0


def self_test() -> int:
    """Both branches of every check on synthetic trees: clean → 0, dead
    link → 1, bogus hacksim_run flag → 1, bogus enumerated value → 1, code
    citing a missing doc → 1."""
    import tempfile

    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        (root / "docs").mkdir()
        (root / "tools").mkdir()
        (root / "tools" / "hacksim_run.cc").write_text(
            'if (ParseFlag(argv[i], "clients", &value)) {\n'
            '} else if (ParseFlag(argv[i], "proto", &value)) {\n'
            '} else if (std::strcmp(argv[i], "--upload") == 0) {\n'
            'config.proto = Choose<TransportProto>(\n'
            '    "proto", flags.proto,\n'
            '    {{"tcp", TransportProto::kTcp}, {"udp", TransportProto::kUdp}});\n',
            encoding="utf-8")
        (root / "docs" / "cli.md").write_text(
            "```\nhacksim_run --clients=2 --proto=udp \\\n"
            "    --upload  # comment\n"
            "campaign --jobs=4 --proto=bogus\n```\n", encoding="utf-8")
        if check_flags(root) != 0:
            print("self-test FAIL: documented flags and values that exist "
                  "did not pass")
            ok = False
        (root / "docs" / "cli.md").write_text(
            "```\nhacksim_run --clients=2 \\\n    --proto=sctp\n```\n",
            encoding="utf-8")
        if check_flags(root) != 1:
            print("self-test FAIL: a bogus enumerated value did not fail")
            ok = False
        (root / "docs" / "cli.md").write_text(
            "```\nhacksim_run --clients=2 \\\n    --stations=2\n```\n",
            encoding="utf-8")
        if check_flags(root) != 1:
            print("self-test FAIL: a bogus hacksim_run flag did not fail")
            ok = False
        (root / "docs" / "cli.md").unlink()
        (root / "docs" / "guide.md").write_text(
            "See [the readme](../README.md).\n", encoding="utf-8")
        (root / "README.md").write_text(
            "See [the guide](docs/guide.md).\n", encoding="utf-8")
        rc = check(root)
        if rc != 0:
            print("self-test FAIL: clean doc tree did not pass")
            ok = False
        (root / "docs" / "guide.md").write_text(
            "See [gone](missing.md).\n", encoding="utf-8")
        rc = check(root)
        if rc != 1:
            print("self-test FAIL: dead link did not fail the check")
            ok = False
        (root / "src").mkdir()
        (root / "src" / "mac.h").write_text(
            "// See docs/guide.md and README.md.\n", encoding="utf-8")
        if check_cited_docs(root) != 0:
            print("self-test FAIL: code citing docs that exist did not pass")
            ok = False
        (root / "src" / "mac.h").write_text(
            "// See EXPERIMENTS.md for the gap.\n", encoding="utf-8")
        if check_cited_docs(root) != 1:
            print("self-test FAIL: code citing a missing doc did not fail")
            ok = False
        # A path whose file name matches a top-level doc is still missing.
        (root / "src" / "mac.h").write_text(
            "// See docs/README.md.\n", encoding="utf-8")
        if check_cited_docs(root) != 1:
            print("self-test FAIL: a missing docs/README.md did not fail")
            ok = False
        (root / "src" / "mac.h").write_text(
            "struct MacStats {\n"
            "  uint64_t rts_sent = 0;  // RTS transmissions\n"
            "  std::array<uint64_t, 4> ac_ppdus_sent{};\n"
            "  bool Empty() const { return rts_sent == 0; }\n"
            "  friend bool operator==(const MacStats&,\n"
            "                         const MacStats&) = default;\n"
            "};\n", encoding="utf-8")
        (root / "docs" / "guide.md").write_text(
            "`MacStats::rts_sent` and `MacStats::ac_ppdus_sent.size`.\n",
            encoding="utf-8")
        if check_cited_fields(root) != 0:
            print("self-test FAIL: docs citing fields that exist did not "
                  "pass")
            ok = False
        (root / "docs" / "guide.md").write_text(
            "`MacStats::cf_ends_sent` counts nothing.\n", encoding="utf-8")
        if check_cited_fields(root) != 1:
            print("self-test FAIL: a doc citing a missing field did not fail")
            ok = False
        (root / "docs" / "guide.md").write_text(
            "`MacStats::Empty` is a method, not a field.\n",
            encoding="utf-8")
        if check_cited_fields(root) != 1:
            print("self-test FAIL: a doc citing a method as a field did not "
                  "fail")
            ok = False
    print("check_doc_links self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main() -> int:
    if "--self-test" in sys.argv[1:]:
        return self_test()
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
    links = check(root)
    flags = check_flags(root)
    cited = check_cited_docs(root)
    fields = check_cited_fields(root)
    return 1 if links or flags or cited or fields else 0


if __name__ == "__main__":
    sys.exit(main())
