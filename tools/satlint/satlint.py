#!/usr/bin/env python3
"""satlint — the satlib concurrency-protocol linter (stdlib only).

The host tile engines are correct only because every flag publish is a
release store paired with an acquire load and every neighbour wait points at
a strictly smaller serial sigma.  Those invariants live in code review and in
comments — this tool makes them machine-checked.  It is deliberately
token/AST-lite (no libclang): the rules key on the project's own naming
discipline (status words contain "flag"/"status"/"state"), which is exactly
the discipline they enforce.

Rules
-----
  flag-store-ordering   stores / RMWs on flag-named std::atomic objects must
                        publish with memory_order_release (RMW: acq_rel) or
                        stronger; a relaxed flag store silently breaks the
                        flag-after-data protocol on weakly ordered hardware.
  flag-load-ordering    cross-thread loads of flag-named atomics must acquire
                        (or stronger) so the data the flag guards is visible.
  atomic-whitelist      raw std::atomic use is confined to the audited files
                        (ATOMIC_WHITELIST below); new lock-free code must
                        either live there or carry an explicit allow with a
                        rationale.
  volatile-sync         `volatile` is not a synchronization primitive in
                        C++11+; outside `asm volatile` it is rejected.
  unknown-metric        obs counter/gauge/histogram name literals must appear
                        in the docs/observability.md catalogue table, so the
                        catalogue can never silently go stale.
  sigma-direction       the tile-index argument of a `.wait_at_least(...)`
                        call must not add to a tile coordinate (left/up
                        neighbours subtract): a wait toward larger sigma
                        can wait on a tile that is claimed *after* the
                        waiter, which deadlocks a finite pool.
  memory-order-explicit bare `load()` / `store()` (defaulted seq_cst) on the
                        audited flag atomics is an error: every access must
                        name its order, so the release/acquire pairing stays
                        visible in the code and auditable by the rules above
                        (seq_cst-by-omission also hides real cost on weakly
                        ordered targets).

Suppression
-----------
A violation is suppressed by an inline directive on the same line or on a
directly preceding comment line:

    // satlint: allow(flag-store-ordering) -- init store; no thread yet
    flags_[i].store(0, std::memory_order_relaxed);

Every allow must carry a human-readable rationale after the directive; the
directive without one is itself reported (allow-without-reason).

Fixtures / self-test
--------------------
`--self-test` lints every file under tools/satlint/fixtures/ and requires the
set of fired rules to match the file's `// satlint-expect: <rule>` directives
exactly (deliberately-broken corpus; see fixtures/README.md).

Usage
-----
    tools/satlint/satlint.py [--root DIR] [--json FILE] [files...]
    tools/satlint/satlint.py --root DIR --self-test

With no explicit files, lints src/**/*.{hpp,cpp} under the root.  Exit code:
0 clean, 1 violations found, 2 internal/usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import Callable, NamedTuple

# Files (repo-relative) allowed to use std::atomic directly.  Everything else
# must build on these audited primitives (StatusFlags, ThreadPool, SpinBackoff,
# obs counters) or carry an inline allow with a rationale.
ATOMIC_WHITELIST = {
    "src/host/lookback.hpp",
    "src/host/thread_pool.hpp",
    "src/host/thread_pool.cpp",
    "src/util/backoff.hpp",
    "src/gpusim/flags.hpp",
    "src/obs/registry.hpp",
}

# Identifier substrings that mark an atomic as a protocol status word.
FLAG_NAME_TOKENS = ("flag", "status", "state")

RULES = {
    "flag-store-ordering": "flag store must be memory_order_release or stronger",
    "flag-load-ordering": "flag load must be memory_order_acquire or stronger",
    "atomic-whitelist": "std::atomic outside the audited whitelist",
    "volatile-sync": "volatile used where synchronization is required",
    "unknown-metric": "metric name missing from docs/observability.md catalogue",
    "sigma-direction": "neighbour wait must target a smaller sigma",
    "memory-order-explicit": "flag atomic access must name its memory order",
    "allow-without-reason": "satlint allow directive carries no rationale",
}

STORE_OK = {"release", "seq_cst", "acq_rel"}
LOAD_OK = {"acquire", "seq_cst"}
RMW_OK = {"acq_rel", "seq_cst", "release"}

ATOMIC_OP = re.compile(
    r"\b(?P<obj>[A-Za-z_]\w*)\s*(?:\[[^\[\]]*\])?\s*(?:\.|->)\s*"
    r"(?P<op>store|load|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|"
    r"fetch_xor|compare_exchange_weak|compare_exchange_strong)\s*\("
)
MEMORY_ORDER = re.compile(r"memory_order(?:::|_)(\w+)")
METRIC_CALL = re.compile(r"\b(?:counter|gauge|histogram)\s*\(\s*\"([^\"]+)\"")
ALLOW_DIRECTIVE = re.compile(r"satlint:\s*allow\(([^)]*)\)\s*(.*)")
EXPECT_DIRECTIVE = re.compile(r"satlint-expect:\s*([\w-]+)")
CATALOGUE_ROW = re.compile(r"^\|\s*`([A-Za-z0-9_.]+)`\s*\|")
# A call of StatusFlags::wait_at_least through an object (not the
# declaration).
WAIT_CALL = re.compile(r"(?:\.|->)\s*wait_at_least\s*\(")


class Violation(NamedTuple):
    path: str  # repo-relative
    line: int  # 1-based
    rule: str
    message: str


class SourceFile:
    """One sanitized translation unit.

    `code` strips comments AND string/char literal contents; `keepstr` strips
    only comments (the metric rule needs the name literals).  Both preserve
    line structure so diagnostics stay at real line numbers.
    """

    def __init__(self, path: Path, relpath: str, text: str):
        self.path = path
        self.relpath = relpath
        self.code, self.keepstr, comments = _sanitize(text)
        self.allows: dict[int, dict[str, str]] = {}  # line -> rule -> reason
        self.expects: set[str] = set()
        self.bare_allows: list[int] = []  # allow() with no rationale
        self._bind_directives(comments)

    def _bind_directives(self, comments: list[tuple[int, str]]) -> None:
        for lineno, text in comments:
            for m in EXPECT_DIRECTIVE.finditer(text):
                self.expects.add(m.group(1))
            m = ALLOW_DIRECTIVE.search(text)
            if m is None:
                continue
            rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
            reason = m.group(2).strip().lstrip("-—: ").strip()
            if not reason:
                self.bare_allows.append(lineno)
            # A trailing comment binds to its own line; a comment-only line
            # binds to the first following line that carries code (the
            # rationale may wrap over several comment lines in between).
            target = lineno
            if not self.code[lineno - 1].strip():
                for nxt in range(lineno + 1, min(lineno + 9, len(self.code) + 1)):
                    if self.code[nxt - 1].strip():
                        target = nxt
                        break
            slot = self.allows.setdefault(target, {})
            for r in rules:
                slot[r] = reason

    def window(self, lineno: int, span: int = 14) -> str:
        """Physical lines joined into one string for multi-line calls."""
        return " ".join(self.code[lineno - 1 : lineno - 1 + span])

    def allowed(self, lineno: int, rule: str) -> bool:
        return rule in self.allows.get(lineno, {})


def _sanitize(text: str) -> tuple[list[str], list[str], list[tuple[int, str]]]:
    code: list[str] = []
    keepstr: list[str] = []
    comments: list[tuple[int, str]] = []
    state = "normal"  # normal | line | block | dq | sq
    cur_code: list[str] = []
    cur_keep: list[str] = []
    cur_comment: list[str] = []
    lineno = 1
    i = 0
    n = len(text)

    def flush_line() -> None:
        nonlocal cur_code, cur_keep, cur_comment
        code.append("".join(cur_code))
        keepstr.append("".join(cur_keep))
        if cur_comment:
            comments.append((lineno, "".join(cur_comment)))
        cur_code, cur_keep, cur_comment = [], [], []

    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "\n":
            flush_line()
            lineno += 1
            if state == "line":
                state = "normal"
            i += 1
            continue
        if state == "normal":
            if c == "/" and nxt == "/":
                state = "line"
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                i += 2
                continue
            if c == '"':
                state = "dq"
                cur_code.append('"')
                cur_keep.append('"')
                i += 1
                continue
            if c == "'":
                state = "sq"
                cur_code.append("'")
                cur_keep.append("'")
                i += 1
                continue
            cur_code.append(c)
            cur_keep.append(c)
        elif state == "line":
            cur_comment.append(c)
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "normal"
                i += 2
                continue
            cur_comment.append(c)
        elif state in ("dq", "sq"):
            quote = '"' if state == "dq" else "'"
            if c == "\\":
                cur_code.append(" ")
                cur_keep.append(text[i : i + 2])
                i += 2
                continue
            if c == quote:
                state = "normal"
                cur_code.append(quote)
                cur_keep.append(quote)
            else:
                cur_code.append(" ")
                cur_keep.append(c)
        i += 1
    flush_line()
    return code, keepstr, comments


def _call_args(window: str, start: int) -> str:
    """Text of a call's argument list starting at its opening paren."""
    depth = 0
    for j in range(start, len(window)):
        if window[j] == "(":
            depth += 1
        elif window[j] == ")":
            depth -= 1
            if depth == 0:
                return window[start : j + 1]
    return window[start:]


def check_atomic_ops(src: SourceFile) -> list[Violation]:
    out: list[Violation] = []
    for lineno, line in enumerate(src.code, start=1):
        if not line.strip():
            continue
        window = src.window(lineno)
        for m in ATOMIC_OP.finditer(window):
            if m.start() >= len(line):
                continue  # belongs to a later physical line
            obj = m.group("obj").lower()
            if not any(tok in obj for tok in FLAG_NAME_TOKENS):
                continue
            op = m.group("op")
            args = _call_args(window, m.end() - 1)
            orders = MEMORY_ORDER.findall(args)
            if not orders:
                out.append(Violation(
                    src.relpath, lineno, "memory-order-explicit",
                    f"{op}() on flag '{m.group('obj')}' names no memory "
                    f"order (defaulted seq_cst); the flag protocol's "
                    f"release/acquire pairing must be explicit at every "
                    f"access so the ordering rules can audit it"))
                continue
            if op == "load":
                bad = [o for o in orders if o not in LOAD_OK]
                if bad:
                    out.append(Violation(
                        src.relpath, lineno, "flag-load-ordering",
                        f"load of flag '{m.group('obj')}' uses "
                        f"memory_order_{bad[0]}; a cross-thread flag read "
                        f"must acquire (or stronger) so the data it guards "
                        f"is visible"))
            elif op == "store":
                bad = [o for o in orders if o not in STORE_OK]
                if bad:
                    out.append(Violation(
                        src.relpath, lineno, "flag-store-ordering",
                        f"store to flag '{m.group('obj')}' uses "
                        f"memory_order_{bad[0]}; a flag publish must release "
                        f"(or stronger) so it cannot pass the data it "
                        f"guards"))
            else:  # RMW / exchange
                bad = [o for o in orders if o not in RMW_OK]
                if bad:
                    out.append(Violation(
                        src.relpath, lineno, "flag-store-ordering",
                        f"read-modify-write on flag '{m.group('obj')}' uses "
                        f"memory_order_{bad[0]}; flag RMWs must be acq_rel "
                        f"(or stronger)"))
    return out


def check_atomic_whitelist(src: SourceFile) -> list[Violation]:
    if src.relpath in ATOMIC_WHITELIST:
        return []
    out = []
    for lineno, line in enumerate(src.code, start=1):
        if re.search(r"\bstd\s*::\s*atomic\b", line):
            out.append(Violation(
                src.relpath, lineno, "atomic-whitelist",
                "raw std::atomic outside the audited whitelist "
                "(lookback/thread_pool/backoff/flags/registry); build on "
                "StatusFlags or the pool, move the code into an audited "
                "file, or add a satlint allow with a rationale"))
    return out


def check_volatile(src: SourceFile) -> list[Violation]:
    out = []
    for lineno, line in enumerate(src.code, start=1):
        if re.search(r"\bvolatile\b", line) and not re.search(
                r"\basm\b|__asm__", line):
            out.append(Violation(
                src.relpath, lineno, "volatile-sync",
                "volatile is not a synchronization primitive in C++ "
                "(no ordering, no atomicity); use std::atomic with "
                "explicit memory orders"))
    return out


def check_metrics(src: SourceFile, catalogue: set[str]) -> list[Violation]:
    out = []
    for lineno, line in enumerate(src.keepstr, start=1):
        window = " ".join(src.keepstr[lineno - 1 : lineno + 2])
        for m in METRIC_CALL.finditer(window):
            if m.start() >= len(line):
                continue
            name = m.group(1)
            if name not in catalogue:
                out.append(Violation(
                    src.relpath, lineno, "unknown-metric",
                    f"metric '{name}' is not in the docs/observability.md "
                    f"catalogue table; add a catalogue row (name, type, "
                    f"meaning) in the same change"))
    return out


def _first_arg(args: str) -> str:
    """First top-level argument of a parenthesized argument list."""
    depth = 0
    for j, ch in enumerate(args[1:], start=1):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            if depth == 0:
                return args[1:j]
            depth -= 1
        elif ch == "," and depth == 0:
            return args[1:j]
    return args[1:]


def check_sigma_direction(src: SourceFile) -> list[Violation]:
    out = []
    for lineno, line in enumerate(src.code, start=1):
        for m in WAIT_CALL.finditer(line):
            window = src.window(lineno)
            start = window.find("(", m.start())
            index = _first_arg(_call_args(window, start))
            if "+" in index:
                out.append(Violation(
                    src.relpath, lineno, "sigma-direction",
                    f"wait index '{index.strip()}' adds to a tile "
                    f"coordinate: the wait targets a *larger* sigma, which "
                    f"can wait on a tile claimed after the waiter and "
                    f"deadlock a finite pool; neighbour waits must target "
                    f"the left (tj - 1) or upper (ti - 1) tile"))
    return out


def load_catalogue(root: Path) -> set[str]:
    doc = root / "docs" / "observability.md"
    if not doc.is_file():
        raise FileNotFoundError(f"metric catalogue not found: {doc}")
    names = set()
    for line in doc.read_text(encoding="utf-8").splitlines():
        m = CATALOGUE_ROW.match(line)
        if m:
            names.add(m.group(1))
    if not names:
        raise ValueError(f"no catalogue rows parsed from {doc}")
    return names


def lint_file(path: Path, root: Path, catalogue: set[str]
              ) -> tuple[list[Violation], list[tuple[Violation, str]]]:
    """Returns (reported, suppressed) for one file; each suppressed entry
    pairs the violation with the rationale its allow directive stated."""
    relpath = path.resolve().relative_to(root.resolve()).as_posix()
    src = SourceFile(path, relpath, path.read_text(encoding="utf-8"))
    found: list[Violation] = []
    found += check_atomic_ops(src)
    found += check_atomic_whitelist(src)
    found += check_volatile(src)
    found += check_metrics(src, catalogue)
    found += check_sigma_direction(src)
    reported = [v for v in found if not src.allowed(v.line, v.rule)]
    suppressed = [(v, src.allows[v.line][v.rule]) for v in found
                  if src.allowed(v.line, v.rule)]
    for lineno in src.bare_allows:
        reported.append(Violation(
            relpath, lineno, "allow-without-reason",
            "satlint allow directives must state why, e.g. "
            "// satlint: allow(rule) -- reason"))
    reported.sort(key=lambda v: (v.path, v.line, v.rule))
    return reported, suppressed


def default_targets(root: Path) -> list[Path]:
    return sorted(p for p in (root / "src").rglob("*")
                  if p.suffix in (".hpp", ".cpp", ".h") and p.is_file())


def self_test(root: Path, catalogue: set[str]) -> int:
    fixtures = sorted((root / "tools" / "satlint" / "fixtures").glob("*.[ch]pp"))
    if not fixtures:
        print("satlint --self-test: no fixtures found", file=sys.stderr)
        return 2
    failures = 0
    for f in fixtures:
        relpath = f.resolve().relative_to(root.resolve()).as_posix()
        src = SourceFile(f, relpath, f.read_text(encoding="utf-8"))
        reported, suppressed = lint_file(f, root, catalogue)
        fired = {v.rule for v in reported}
        ok = fired == src.expects and len(reported) > 0
        status = "ok" if ok else "FAIL"
        print(f"self-test {status}: {relpath}: fired={sorted(fired)} "
              f"expected={sorted(src.expects)} "
              f"(+{len(suppressed)} suppressed)")
        if not ok:
            failures += 1
            for v in reported:
                print(f"  {v.path}:{v.line}: [{v.rule}] {v.message}",
                      file=sys.stderr)
    print(f"satlint --self-test: {len(fixtures)} fixtures, "
          f"{failures} failures")
    return 0 if failures == 0 else 1


def main() -> int:
    ap = argparse.ArgumentParser(prog="satlint", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", default=".", help="repo root (default: cwd)")
    ap.add_argument("--json", metavar="FILE",
                    help="write a machine-readable report ('-' for stdout)")
    ap.add_argument("--self-test", action="store_true",
                    help="lint the fixture corpus against its expectations")
    ap.add_argument("files", nargs="*",
                    help="explicit files (default: src/** under the root)")
    args = ap.parse_args()

    root = Path(args.root).resolve()
    try:
        catalogue = load_catalogue(root)
    except (FileNotFoundError, ValueError) as e:
        print(f"satlint: {e}", file=sys.stderr)
        return 2

    if args.self_test:
        return self_test(root, catalogue)

    targets = [Path(f) for f in args.files] or default_targets(root)
    all_reported: list[Violation] = []
    all_suppressed: list[tuple[Violation, str]] = []
    for t in targets:
        if not t.is_file():
            print(f"satlint: no such file: {t}", file=sys.stderr)
            return 2
        reported, suppressed = lint_file(t, root, catalogue)
        all_reported += reported
        all_suppressed += suppressed

    # With --json -, stdout is the machine-readable report; keep the human
    # lines on stderr so the payload stays parseable.
    human = sys.stderr if args.json == "-" else sys.stdout
    for v in all_reported:
        print(f"{v.path}:{v.line}: [{v.rule}] {v.message}", file=human)

    if args.json:
        # Version 2: every diagnostic carries its rule id, and every
        # suppressed entry carries the rationale its allow directive stated
        # (so suppression audits don't have to re-read the source).
        report = {
            "tool": "satlint",
            "version": 2,
            "root": str(root),
            "files_scanned": len(targets),
            "violations": [v._asdict() for v in all_reported],
            "suppressed": [{**v._asdict(), "reason": reason}
                           for v, reason in all_suppressed],
        }
        payload = json.dumps(report, indent=2)
        if args.json == "-":
            print(payload)
        else:
            Path(args.json).write_text(payload + "\n", encoding="utf-8")

    print(f"satlint: {len(targets)} files, {len(all_reported)} violations "
          f"({len(all_suppressed)} suppressed by allow directives)",
          file=human)
    return 1 if all_reported else 0


if __name__ == "__main__":
    sys.exit(main())
