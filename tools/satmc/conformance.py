#!/usr/bin/env python3
"""Code↔model conformance extractor for satmc (stdlib only).

The satmc model checker (tools/satmc/) verifies an *independent* encoding of
the host 1R1W-SKSS-LB tile protocol — the neighbour wait.  That independence
is only worth anything if the encoding and the real headers cannot silently
drift apart — this tool closes the loop.  It parses the production headers
with satlint's sanitizing tokenizer and asserts that every protocol fact the
code states is exactly the fact the model declares (`satmc --dump-model`):

  * the hflag lattice in src/host/lookback.hpp (one DONE state);
  * the memory orders of the flag primitive: publish = store-release,
    observe = load-acquire.  Relaxed accesses covered by a satlint allow
    directive (with rationale) are exempt, exactly as satlint itself treats
    them;
  * the neighbour wait (LookbackAux::wait_neighbours in lookback.hpp): its
    waits in source order — which neighbour (left/up), which threshold;
  * per engine (src/host/sat_skss_lb.hpp and src/host/sat_residual.hpp),
    the tile's protocol steps in source order: the neighbour wait, then
    the publishes;
  * the claim counter: one `work_counter_.fetch_add(1, relaxed)` per tile,
    and no steal or CAS path beside it;
  * the paper's device lattice (rflag/cflag in src/sat/aux_arrays.hpp and
    the transition tables + terminal states registered with the protocol
    checker in src/sat/protocol_specs.hpp) against the model's reference
    declaration of it.  The explorer does not run that protocol — the
    simulator's protocol checker does — but the declaration pins it.

Usage:
    conformance.py --root DIR --satmc PATH/TO/satmc [--lookback FILE]
                   [--expect-drift]

`--lookback` substitutes the flag-header source (used by the ctest entry
that feeds the deliberately drifted fixture in).  `--expect-drift` inverts
the exit code: 0 iff at least one conformance error was found — proving the
extractor actually detects drift.  Exit: 0 ok, 1 conformance errors (or,
with --expect-drift, no errors), 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "satlint"))
import satlint  # noqa: E402  (satlint's tokenizer is the extraction engine)

# hflag / rflag / cflag constant declarations inside a namespace block.
NAMESPACE = re.compile(r"namespace\s+(\w+)\s*\{")
FLAG_CONST = re.compile(
    r"inline\s+constexpr\s+std::uint8_t\s+k(\w+)\s*=\s*(\d+)\s*;")
# iaux.status.publish(self, hflag::kDone);  (`iaux` is the per-image aux of
# the batch engines; the \w* prefix tolerates renames that keep the aux stem)
PUBLISH_CALL = re.compile(
    r"\w*aux\s*\.\s*status\s*\.\s*publish\s*\(\s*self\s*,\s*"
    r"hflag::k(\w+)\s*\)")
# status.wait_at_least(grid.idx(ti, tj - 1), hflag::kDone, obs)
WAIT_CALL = re.compile(
    r"\bstatus\s*\.\s*wait_at_least\s*\(\s*"
    r"\w+\s*\.\s*idx\s*\(([^()]*)\)\s*,\s*hflag::k(\w+)")
# iaux.wait_neighbours(grid, ti, tj, obs) — an engine's neighbour wait.
WAIT_NEIGHBOURS_CALL = re.compile(r"\w*aux\s*\.\s*wait_neighbours\s*\(")
# The two neighbour index expressions, whitespace-free.
NEIGHBOURS = {"ti,tj-1": "left", "ti-1,tj": "up"}
# work_counter_.fetch_add(1, std::memory_order_relaxed) — the claim counter
# of ClaimScheduler (src/host/lookback.hpp): its increment and its order.
CLAIM_CALL = re.compile(
    r"work_counter_\s*\.\s*fetch_add\s*\(\s*([^,()]+?)\s*,"
    r"[^)]*memory_order(?:::|_)(\w+)")
# Any second claim path: a steal, or a CAS on claim state.
STEAL_PATH = re.compile(r"steal|compare_exchange", re.IGNORECASE)
# {0, rflag::kLrs},  /  {rflag::kGls, rflag::kGs},
TRANSITION_ROW = re.compile(
    r"\{\s*(0|[rc]flag::k\w+)\s*,\s*([rc]flag::k\w+)\s*\}")
TERMINAL_DECL = re.compile(
    r"kSkssLbTerminal([RC])\s*=\s*([rc]flag::k(\w+))\s*;")
TRANSITION_TABLE = re.compile(
    r"kSkssLbTransitions([RC])\s*\[\]\s*=\s*\{(.*?)\};", re.DOTALL)

R_NAMES = ("LRS", "GRS", "GLS", "GS")
C_NAMES = ("LCS", "GCS")
ENGINES = ("sat_skss_lb.hpp", "sat_residual.hpp")


class Conformance:
    def __init__(self) -> None:
        self.errors: list[str] = []
        self.checked = 0

    def expect(self, what: str, got, want) -> None:
        self.checked += 1
        if got == want:
            print(f"  ok: {what}: {got}")
        else:
            self.errors.append(f"{what}: code says {got!r}, model says {want!r}")
            print(f"  MISMATCH: {what}: code={got!r} model={want!r}")


def load_source(path: Path, root: Path) -> satlint.SourceFile:
    try:
        rel = path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        rel = path.as_posix()
    return satlint.SourceFile(path, rel, path.read_text(encoding="utf-8"))


def parse_flag_namespaces(src: satlint.SourceFile,
                          wanted: set[str]) -> dict[str, dict[str, int]]:
    """{namespace: {NAME: value}} for the requested flag namespaces."""
    out: dict[str, dict[str, int]] = {}
    current: str | None = None
    for line in src.code:
        m = NAMESPACE.search(line)
        if m and m.group(1) in wanted:
            current = m.group(1)
            out.setdefault(current, {})
        if current is None:
            continue
        for c in FLAG_CONST.finditer(line):
            out[current][c.group(1).upper()] = int(c.group(2))
        if "}" in line and NAMESPACE.search(line) is None \
                and FLAG_CONST.search(line) is None and current in out \
                and out[current]:
            current = None
    return out


def atomic_order_facts(src: satlint.SourceFile) -> dict[str, set[str]]:
    """Memory orders of flag-object atomic ops, minus allow-covered ones.

    Returns {"store": {orders...}, "load": {orders...}} for every atomic
    access whose object looks like a protocol flag (satlint's naming
    discipline) and that is not excused by a satlint allow directive.
    """
    facts: dict[str, set[str]] = {"store": set(), "load": set()}
    for lineno, line in enumerate(src.code, start=1):
        if not line.strip():
            continue
        window = src.window(lineno)
        for m in satlint.ATOMIC_OP.finditer(window):
            if m.start() >= len(line):
                continue
            obj = m.group("obj").lower()
            if not any(tok in obj for tok in satlint.FLAG_NAME_TOKENS):
                continue
            op = m.group("op")
            rule = ("flag-load-ordering" if op == "load"
                    else "flag-store-ordering")
            if src.allowed(lineno, rule):
                continue  # audited exception, rationale included
            orders = satlint.MEMORY_ORDER.findall(
                satlint._call_args(window, m.end() - 1))
            kind = "load" if op == "load" else "store"
            for o in orders:
                facts[kind].add(o)
    return facts


def resolve(sym: str, rflags: dict[str, int], cflags: dict[str, int]) -> int:
    if sym == "0":
        return 0
    name = sym.split("::k")[-1].upper()
    table = rflags if sym.startswith("rflag") else cflags
    if name not in table:
        raise KeyError(f"cannot resolve {sym}")
    return table[name]


def main() -> int:
    ap = argparse.ArgumentParser(prog="conformance", description=__doc__)
    ap.add_argument("--root", default=".", help="repo root")
    ap.add_argument("--satmc", required=True, help="path to the satmc binary")
    ap.add_argument("--lookback", help="override src/host/lookback.hpp "
                                       "(drift-fixture injection)")
    ap.add_argument("--expect-drift", action="store_true",
                    help="succeed iff conformance errors are found")
    args = ap.parse_args()
    root = Path(args.root).resolve()

    try:
        dump = json.loads(subprocess.run(
            [args.satmc, "--dump-model"], check=True, capture_output=True,
            text=True).stdout)
    except (OSError, subprocess.CalledProcessError, json.JSONDecodeError) as e:
        print(f"conformance: cannot obtain model dump: {e}", file=sys.stderr)
        return 2

    lookback_path = Path(args.lookback) if args.lookback \
        else root / "src" / "host" / "lookback.hpp"
    engine_paths = [root / "src" / "host" / name for name in ENGINES]
    specs_path = root / "src" / "sat" / "protocol_specs.hpp"
    aux_path = root / "src" / "sat" / "aux_arrays.hpp"
    for p in (lookback_path, *engine_paths, specs_path, aux_path):
        if not p.is_file():
            print(f"conformance: missing source {p}", file=sys.stderr)
            return 2

    conf = Conformance()

    # 1. Host flag lattice (hflag) vs the model's declaration.
    print(f"[lookback] {lookback_path}")
    lookback = load_source(lookback_path, root)
    hflags = parse_flag_namespaces(lookback, {"hflag"}).get("hflag", {})
    conf.expect("hflag lattice", hflags, dump["flags"])

    # 2. Memory orders in the flag primitive (allow-covered ops exempt).
    orders = atomic_order_facts(lookback)
    conf.expect("flag publish store order", sorted(orders["store"]),
                [dump["orders"]["publish"]])
    conf.expect("flag observe load order", sorted(orders["load"]),
                [dump["orders"]["observe"]])

    # 3. The neighbour wait, then each engine's protocol steps in source
    # order.
    lookback_text = "\n".join(lookback.code)
    waits = [[NEIGHBOURS.get(re.sub(r"\s+", "", idx), idx.strip()),
              name.upper()] for idx, name in WAIT_CALL.findall(lookback_text)]
    conf.expect("neighbour waits (neighbour, state)", waits, dump["waits"])
    for path in engine_paths:
        print(f"[engine] {path}")
        text = "\n".join(load_source(path, root).code)
        steps = [(m.start(), "wait")
                 for m in WAIT_NEIGHBOURS_CALL.finditer(text)]
        steps += [(m.start(), m.group(1).upper())
                  for m in PUBLISH_CALL.finditer(text)]
        conf.expect(f"{path.name}: tile steps (wait, then publishes)",
                    [step for _, step in sorted(steps)],
                    dump["tile_sequence"])

    # 4. The paper's device lattice: rflag/cflag mirrors, the registered
    # transition tables and terminals, against the model's reference
    # declaration.
    paper = dump["paper_lattice"]
    model_r = paper["flags"]["R"]
    model_c = paper["flags"]["C"]
    print(f"[aux_arrays] {aux_path}")
    aux = load_source(aux_path, root)
    device = parse_flag_namespaces(aux, {"rflag", "cflag"})
    rflags = {n.upper(): v for n, v in device.get("rflag", {}).items()}
    cflags = {n.upper(): v for n, v in device.get("cflag", {}).items()}
    conf.expect("rflag lattice (device mirror)",
                {n: rflags.get(n) for n in R_NAMES}, model_r)
    conf.expect("cflag lattice (device mirror)",
                {n: cflags.get(n) for n in C_NAMES}, model_c)
    print(f"[protocol_specs] {specs_path}")
    specs_text = "\n".join(load_source(specs_path, root).code)
    tables: dict[str, list[list[int]]] = {}
    for m in TRANSITION_TABLE.finditer(specs_text):
        rows = [[resolve(a, rflags, cflags), resolve(b, rflags, cflags)]
                for a, b in TRANSITION_ROW.findall(m.group(2))]
        tables[m.group(1)] = rows
    conf.expect("R transition table", tables.get("R"),
                paper["transitions"]["R"])
    conf.expect("C transition table", tables.get("C"),
                paper["transitions"]["C"])
    terminals = {m.group(1): resolve(m.group(2), rflags, cflags)
                 for m in TERMINAL_DECL.finditer(specs_text)}
    conf.expect("terminal states", terminals, paper["terminal"])

    # 5. The claim counter (ClaimScheduler, lookback.hpp): one ticket per
    # tile — fetch_add(1), relaxed — and no steal or CAS path beside it.
    print(f"[claim counter] {lookback_path}")
    claims = CLAIM_CALL.findall(lookback_text)
    conf.expect("claim counter fetch_add increments",
                sorted({inc for inc, _ in claims}),
                [dump["claim"]["increment"]])
    conf.expect("claim counter fetch_add order",
                sorted({order for _, order in claims}),
                [dump["orders"]["claim"]])
    conf.expect("steal or CAS claim path",
                "present" if STEAL_PATH.search(lookback_text) else "absent",
                dump["claim"]["steal"])
    conf.expect("claim counter name",
                "work_counter_" if "work_counter_" in lookback_text
                else "absent", dump["claim"]["counter"])

    print(f"conformance: {conf.checked} facts checked, "
          f"{len(conf.errors)} mismatches")
    for e in conf.errors:
        print(f"conformance error: {e}", file=sys.stderr)

    if args.expect_drift:
        if conf.errors:
            print("conformance: drift detected, as expected")
            return 0
        print("conformance: expected drift but everything conformed",
              file=sys.stderr)
        return 1
    return 1 if conf.errors else 0


if __name__ == "__main__":
    sys.exit(main())
