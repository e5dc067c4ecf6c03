#!/usr/bin/env python3
"""Validate alive2re observability artifacts (stdlib only).

Two artifact kinds, both produced by every alive-* tool:

  --jsonl FILE   a JSONL pipeline trace (--trace-out): every line must be a
                 flat JSON object carrying the mandatory "event", "t" and
                 "tid" fields (and "span" since the profiling subsystem);
                 values must be scalars (nesting is unsupported by design)
                 except the "query" event's "restless_reads", a list of
                 strings it must carry; "sat_check" / "ef_query" / "query"
                 events must carry every effort key as a non-negative
                 number, and "ef_query" its "refuted_by" stage.

  --chrome FILE  a Chrome trace-event profile (--profile-out): the document
                 must hold a "traceEvents" list whose entries carry the
                 required keys "ph"/"pid"/"tid"/"name"; complete ("X")
                 events also need numeric "ts"/"dur", with "ts" monotone
                 non-decreasing per (pid, tid) track.

Exit status 0 when every requested artifact validates, 1 otherwise, with
one diagnostic per violation on stderr. Used by the `tool.check-trace`
ctest and usable standalone:

  alive-tv src.ll tgt.ll -j 4 --trace-out t.jsonl --profile-out p.json
  python3 tools/check_trace.py --jsonl t.jsonl --chrome p.json
"""

import argparse
import json
import sys

# Reason spellings of support/Reason.cpp ("" = Reason::None); every
# "verdict" event must carry one of these in its "reason" field, plus an
# integer retry-ladder "rung". Governor events have their own schema.
KNOWN_REASONS = {
    "", "cancelled", "timeout", "memory", "quantifier limit",
    "conflict budget", "budget-exhausted", "cached", "retries-exhausted",
    "deadline-skipped", "watchdog-cancelled",
}


# prof::Tally's effort keys (support/Profile.h); every "sat_check",
# "ef_query" and "query" event carries each as a non-negative number.
EFFORT_KEYS = ("solver_seconds", "sat_checks", "conflicts", "decisions",
               "propagations", "restarts", "rewrites", "clauses")
EFFORT_EVENTS = {"sat_check", "ef_query", "query"}

# The stage whose formula refuted an exists-forall query's outer side while
# it was built (smt/ExistsForall.cpp); "" when the build ended unrefuted.
# Every "ef_query" event must carry one of these in its "refuted_by" field.
REFUTED_BY = ("outer", "seed", "derived_seed", "")

# The one list-valued field: the read paths a "query" event names as the
# reason it was inconclusive (empty when it was not).
LIST_FIELDS = {("query", "restless_reads")}


def fail(errors, msg):
    errors.append(msg)
    print(f"check_trace: {msg}", file=sys.stderr)


def check_event_fields(path, lineno, obj, errors):
    """Schema checks for event kinds with effort or governance fields."""
    kind = obj.get("event")
    where = f"{path}:{lineno}"
    if kind in EFFORT_EVENTS:
        for key in EFFORT_KEYS:
            value = obj.get(key)
            if (not isinstance(value, (int, float)) or isinstance(value, bool)
                    or value < 0):
                fail(errors, f"{where}: {kind} event needs non-negative "
                     f"numeric '{key}'")
    if kind == "ef_query" and obj.get("refuted_by") not in REFUTED_BY:
        fail(errors, f"{where}: ef_query event needs 'refuted_by', one of "
             + ", ".join(map(repr, REFUTED_BY)))
    if kind == "query":
        reads = obj.get("restless_reads")
        if (not isinstance(reads, list)
                or not all(isinstance(r, str) for r in reads)):
            fail(errors, f"{where}: query event needs a list of strings "
                 "'restless_reads'")
    if kind == "verdict":
        if "reason" not in obj or "rung" not in obj:
            fail(errors, f"{where}: verdict event missing 'reason'/'rung'")
            return
        if obj["reason"] not in KNOWN_REASONS:
            fail(errors, f"{where}: unknown verdict reason "
                 f"'{obj['reason']}'")
        if not isinstance(obj["rung"], int) or obj["rung"] < 0:
            fail(errors, f"{where}: 'rung' must be a non-negative integer")
    elif kind == "deadline":
        for key in ("deadline_sec", "cancelled_inflight"):
            if not isinstance(obj.get(key), (int, float)):
                fail(errors, f"{where}: deadline event needs numeric "
                     f"'{key}'")
    elif kind == "watchdog":
        if not isinstance(obj.get("victim"), str):
            fail(errors, f"{where}: watchdog event needs string 'victim'")
        for key in ("rss_bytes", "limit_bytes", "elapsed_sec"):
            if not isinstance(obj.get(key), (int, float)):
                fail(errors, f"{where}: watchdog event needs numeric "
                     f"'{key}'")


def check_jsonl(path, errors):
    events = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                fail(errors, f"{path}:{lineno}: empty line")
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                fail(errors, f"{path}:{lineno}: invalid JSON: {exc}")
                continue
            if not isinstance(obj, dict):
                fail(errors, f"{path}:{lineno}: line is not a JSON object")
                continue
            events += 1
            for key in ("event", "t", "tid"):
                if key not in obj:
                    fail(errors, f"{path}:{lineno}: missing key '{key}'")
            if not isinstance(obj.get("event"), str):
                fail(errors, f"{path}:{lineno}: 'event' must be a string")
            if not isinstance(obj.get("t"), (int, float)):
                fail(errors, f"{path}:{lineno}: 't' must be a number")
            if not isinstance(obj.get("tid"), int):
                fail(errors, f"{path}:{lineno}: 'tid' must be an integer")
            if "span" in obj and not isinstance(obj["span"], int):
                fail(errors, f"{path}:{lineno}: 'span' must be an integer")
            for key, value in obj.items():
                if (isinstance(value, (dict, list))
                        and (obj.get("event"), key) not in LIST_FIELDS):
                    fail(errors,
                         f"{path}:{lineno}: nested value under '{key}' "
                         "(trace values must be flat scalars)")
            check_event_fields(path, lineno, obj, errors)
    if events == 0:
        fail(errors, f"{path}: no events")
    return events


def check_chrome(path, errors):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            fail(errors, f"{path}: invalid JSON: {exc}")
            return 0, 0
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail(errors, f"{path}: missing 'traceEvents' list")
        return 0, 0
    last_ts = {}  # (pid, tid) -> last seen ts
    spans = 0
    for i, ev in enumerate(events):
        where = f"{path}: traceEvents[{i}]"
        if not isinstance(ev, dict):
            fail(errors, f"{where}: not an object")
            continue
        for key in ("ph", "pid", "tid", "name"):
            if key not in ev:
                fail(errors, f"{where}: missing key '{key}'")
        if ev.get("ph") != "X":
            continue  # metadata ("M") and other phases carry no timing
        spans += 1
        ts, dur = ev.get("ts"), ev.get("dur")
        if not isinstance(ts, (int, float)):
            fail(errors, f"{where}: 'X' event needs numeric 'ts'")
            continue
        if not isinstance(dur, (int, float)) or dur < 0:
            fail(errors, f"{where}: 'X' event needs non-negative 'dur'")
        track = (ev.get("pid"), ev.get("tid"))
        if track in last_ts and ts < last_ts[track]:
            fail(errors,
                 f"{where}: 'ts' {ts} goes backwards on track {track} "
                 f"(previous {last_ts[track]})")
        last_ts[track] = ts
    if spans == 0:
        fail(errors, f"{path}: no 'X' span events")
    return spans, len(last_ts)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--jsonl", help="JSONL pipeline trace (--trace-out)")
    ap.add_argument("--chrome",
                    help="Chrome trace-event profile (--profile-out)")
    ap.add_argument("--min-tracks", type=int, default=0,
                    help="require at least N (pid, tid) tracks in the "
                    "Chrome profile (e.g. worker count of a -j N run)")
    args = ap.parse_args()
    if not args.jsonl and not args.chrome:
        ap.error("nothing to check: pass --jsonl and/or --chrome")

    errors = []
    if args.jsonl:
        n = check_jsonl(args.jsonl, errors)
        print(f"check_trace: {args.jsonl}: {n} JSONL events")
    if args.chrome:
        spans, tracks = check_chrome(args.chrome, errors)
        print(f"check_trace: {args.chrome}: {spans} spans on {tracks} "
              "tracks")
        if args.min_tracks and tracks < args.min_tracks:
            fail(errors,
                 f"{args.chrome}: expected >= {args.min_tracks} tracks, "
                 f"got {tracks}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
