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

Usage: python3 tools/check_doc_links.py [repo_root]
Exit 0 if every relative link resolves and every documented flag and
enumerated value exists, 1 otherwise (one line per dead link, unknown flag
or unknown value: file, line, target).

python3 tools/check_doc_links.py --self-test exercises both branches of
every check on synthetic trees (a clean tree must pass; a dead link, a
bogus hacksim_run flag and a bogus enumerated value must each fail) and
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


def self_test() -> int:
    """Both branches of every check on synthetic trees: clean → 0, dead
    link → 1, bogus hacksim_run flag → 1, bogus enumerated value → 1."""
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
    print("check_doc_links self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main() -> int:
    if "--self-test" in sys.argv[1:]:
        return self_test()
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
    links = check(root)
    flags = check_flags(root)
    return 1 if links or flags else 0


if __name__ == "__main__":
    sys.exit(main())
