#!/usr/bin/env python3
"""Structural validator for mcbfs trace exports.

Checks a Chrome-trace JSON file (``--chrome``) and/or an
``mcbfs-trace-v1`` metrics JSONL file (``--jsonl``) the way a consumer
would read them: the Chrome file must load in Perfetto / chrome://tracing
(object with a ``traceEvents`` array of well-formed events), the JSONL
file must carry exactly one run header whose span count matches its level
records. ``--expect-levels-match`` compares the level-span counts of two
JSONL files — the native-vs-model parity check run in CI.
``--expect-event NAME`` requires every ``--chrome`` file to hold at least
one event of kind ``NAME``: named ``NAME``, or ``NAME`` followed by a
space and its detail (``channel_send`` for a multi-socket run,
``convert`` matching ``convert to bu`` for a hybrid run).

Exit status 0 on success, 1 with a message on the first violation.
"""

import argparse
import json
import sys

SCHEMA = "mcbfs-trace-v1"
SPAN_PHASES = {"X"}
KNOWN_PHASES = {"X", "M", "i"}


def fail(msg):
    print(f"check_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_chrome(path, expect_events=()):
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            fail(f"{path}: not valid JSON: {e}")
    if not isinstance(doc, dict):
        fail(f"{path}: top level must be an object")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: traceEvents must be a non-empty array")
    level_spans = 0
    for i, ev in enumerate(events):
        for key in ("name", "ph", "pid", "tid", "ts"):
            if key not in ev:
                fail(f"{path}: event {i} missing {key!r}: {ev}")
        if ev["ph"] not in KNOWN_PHASES:
            fail(f"{path}: event {i} has unknown phase {ev['ph']!r}")
        if ev["ph"] in SPAN_PHASES:
            if "dur" not in ev:
                fail(f"{path}: complete event {i} missing dur")
            if ev["dur"] < 0 or ev["ts"] < 0:
                fail(f"{path}: event {i} has negative time")
            if ev["name"].startswith("level "):
                level_spans += 1
                args = ev.get("args", {})
                if "direction" in args and args["direction"] not in ("td", "bu"):
                    fail(f"{path}: event {i} bad direction {args['direction']!r}")
    if level_spans == 0:
        fail(f"{path}: no level spans")
    names = {ev["name"].split(" ", 1)[0] for ev in events}
    for name in expect_events:
        if name not in names:
            fail(f"{path}: no {name!r} event")
    print(f"check_trace: {path}: {len(events)} events, {level_spans} level spans")
    return level_spans


def check_jsonl(path):
    runs = []
    levels = 0
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                fail(f"{path}:{lineno}: not valid JSON: {e}")
            if rec.get("schema") != SCHEMA:
                fail(f"{path}:{lineno}: schema {rec.get('schema')!r} != {SCHEMA!r}")
            kind = rec.get("kind")
            if kind == "run":
                for key in ("label", "algorithm", "mode", "threads", "levels",
                            "level_spans", "dropped_events"):
                    if key not in rec:
                        fail(f"{path}:{lineno}: run record missing {key!r}")
                if rec["mode"] not in ("native", "model"):
                    fail(f"{path}:{lineno}: bad mode {rec['mode']!r}")
                runs.append(rec)
            elif kind == "level":
                for key in ("level", "tid", "direction", "frontier",
                            "edges_scanned", "span_ns", "barrier_wait", "lock_wait"):
                    if key not in rec:
                        fail(f"{path}:{lineno}: level record missing {key!r}")
                if rec["direction"] not in ("td", "bu"):
                    fail(f"{path}:{lineno}: bad direction {rec['direction']!r}")
                for hist_key in ("barrier_wait", "lock_wait"):
                    hist = rec[hist_key]
                    if not isinstance(hist.get("buckets"), list):
                        fail(f"{path}:{lineno}: {hist_key} missing buckets array")
                    if sum(hist["buckets"]) != hist.get("count"):
                        fail(f"{path}:{lineno}: {hist_key} bucket sum != count")
                levels += 1
            else:
                fail(f"{path}:{lineno}: unknown kind {kind!r}")
    if len(runs) != 1:
        fail(f"{path}: expected exactly one run header, found {len(runs)}")
    if runs[0]["level_spans"] != levels:
        fail(f"{path}: header says {runs[0]['level_spans']} spans, "
             f"found {levels} level records")
    print(f"check_trace: {path}: run '{runs[0]['algorithm']}' ({runs[0]['mode']}), "
          f"{levels} level records")
    return levels


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--chrome", action="append", default=[],
                    help="Chrome-trace JSON file to validate (repeatable)")
    ap.add_argument("--jsonl", action="append", default=[],
                    help="metrics JSONL file to validate (repeatable)")
    ap.add_argument("--expect-levels-match", nargs=2, metavar=("A", "B"),
                    help="two JSONL files whose level-span counts must agree")
    ap.add_argument("--expect-event", action="append", default=[], metavar="NAME",
                    help="event kind every --chrome file must hold (repeatable)")
    args = ap.parse_args()
    if not (args.chrome or args.jsonl or args.expect_levels_match):
        ap.error("nothing to check")
    if args.expect_event and not args.chrome:
        ap.error("--expect-event needs a --chrome file")

    for path in args.chrome:
        check_chrome(path, args.expect_event)
    for path in args.jsonl:
        check_jsonl(path)
    if args.expect_levels_match:
        a, b = args.expect_levels_match
        ca, cb = check_jsonl(a), check_jsonl(b)
        if ca != cb:
            fail(f"level-span mismatch: {a} has {ca}, {b} has {cb}")
        print(f"check_trace: parity OK ({ca} level spans in both)")
    print("check_trace: OK")


if __name__ == "__main__":
    main()
