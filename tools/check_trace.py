#!/usr/bin/env python3
"""Validate a Chrome trace-event JSON produced by the obs tracer.

Checks (exit 1 on the first failure, with a diagnostic):
  1. the file is well-formed JSON with a traceEvents array;
  2. per track (pid, tid), event timestamps are non-decreasing in file
     order — the exporter sorts by (track, virtual time), so a violation
     means the sort or the virtual clock regressed;
  3. per track, duration events balance: every E closes the most recent
     open B with the same name, and no B is left open at the end.
     Skipped when otherData.dropped_events > 0 — a ring that wrapped has
     legitimately lost some begin edges.

Multi-worker ticks are first-class: pool threads emit their occupancy
spans on dedicated tracks at tid >= WORKER_TRACK_BASE (1 << 20, matching
obs::kWorkerTrackBase), interleaved with the scheduler's session tracks.
Checks 2 and 3 apply to worker tracks exactly like any other track —
virtual timestamps are monotone per track and every advance span closes.
--expect-worker-tracks asserts a minimum number of distinct worker
tracks, so CI can prove a parallel tick actually fanned out.

The transfer engine emits its link-busy / per-transfer spans on one
dedicated track at tid == TRANSFER_TRACK ((1 << 20) - 1, matching
obs::kTransferTrack, below the worker range). --expect-transfer-track
asserts that track exists with at least one event, so CI can prove an
engine-enabled run actually modeled wire traffic.

--expect-fetch-conservation checks that every speculative fetch the
tiered stores issued was resolved exactly once: the sum of `tokens` over
`fetch-issue` instants must equal the sum over `fetch-complete` plus all
`fetch-cancel-*` instants (a prefetch lands or is canceled, and a run
retires every session). It fails when the trace has no `fetch-issue`
event (a run without prefetch proves nothing) and is skipped, with a
note, when otherData.dropped_events > 0, since a wrapped ring has lost
some of either side.

Usage: check_trace.py <trace.json> [--min-events N]
                      [--expect-worker-tracks N] [--expect-transfer-track]
                      [--expect-fetch-conservation]
"""
import argparse
import json
import sys

WORKER_TRACK_BASE = 1 << 20  # mirrors obs::kWorkerTrackBase
TRANSFER_TRACK = (1 << 20) - 1  # mirrors obs::kTransferTrack


def fail(message):
    print(f"check_trace: FAIL: {message}")
    sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="Chrome trace-event JSON file")
    parser.add_argument(
        "--min-events",
        type=int,
        default=1,
        help="minimum non-metadata events expected (guards empty traces)",
    )
    parser.add_argument(
        "--expect-worker-tracks",
        type=int,
        default=0,
        help="minimum distinct pool-worker tracks (tid >= 1<<20) expected; "
        "0 skips the check",
    )
    parser.add_argument(
        "--expect-transfer-track",
        action="store_true",
        help="require the transfer-engine track (tid == (1<<20)-1) to exist "
        "with at least one event",
    )
    parser.add_argument(
        "--expect-fetch-conservation",
        action="store_true",
        help="require tokens issued by fetch-issue instants to equal tokens "
        "resolved by fetch-complete and fetch-cancel-* instants (skipped "
        "when events were dropped)",
    )
    args = parser.parse_args()

    try:
        with open(args.trace, encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        fail(f"{args.trace}: not readable as JSON: {error}")

    events = document.get("traceEvents")
    if not isinstance(events, list):
        fail("traceEvents missing or not an array")
    dropped = document.get("otherData", {}).get("dropped_events", 0)

    last_ts = {}
    open_spans = {}
    checked = 0
    fetch_issue_events = 0
    issued_tokens = 0
    resolved_tokens = 0
    for i, event in enumerate(events):
        phase = event.get("ph")
        if phase == "M":
            continue
        if phase not in ("B", "E", "i", "C"):
            fail(f"event {i}: unexpected phase {phase!r}")
        track = (event.get("pid"), event.get("tid"))
        ts = event.get("ts")
        if not isinstance(ts, (int, float)):
            fail(f"event {i}: ts missing or non-numeric")
        if track in last_ts and ts < last_ts[track]:
            fail(
                f"event {i} ({event.get('name')!r}): ts {ts} goes backwards "
                f"on track {track} (previous {last_ts[track]})"
            )
        last_ts[track] = ts
        checked += 1

        if phase == "i":
            name = event.get("name", "")
            tokens = event.get("args", {}).get("tokens", 0)
            if name == "fetch-issue":
                fetch_issue_events += 1
                issued_tokens += tokens
            elif name == "fetch-complete" or name.startswith("fetch-cancel"):
                resolved_tokens += tokens

        if phase == "B":
            open_spans.setdefault(track, []).append(event.get("name"))
        elif phase == "E" and dropped == 0:
            stack = open_spans.get(track, [])
            if not stack:
                fail(
                    f"event {i}: E {event.get('name')!r} on track {track} "
                    "with no open span"
                )
            top = stack.pop()
            if top != event.get("name"):
                fail(
                    f"event {i}: E {event.get('name')!r} closes open span "
                    f"{top!r} on track {track}"
                )

    if dropped == 0:
        for track, stack in open_spans.items():
            if stack:
                fail(f"track {track}: unclosed spans at end of trace: {stack}")
    if checked < args.min_events:
        fail(f"only {checked} events (expected >= {args.min_events})")

    worker_tracks = {
        track
        for track in last_ts
        if isinstance(track[1], int) and track[1] >= WORKER_TRACK_BASE
    }
    if len(worker_tracks) < args.expect_worker_tracks:
        fail(
            f"only {len(worker_tracks)} worker tracks (tid >= 1<<20), "
            f"expected >= {args.expect_worker_tracks} — did the tick fan out?"
        )

    transfer_tracks = {
        track for track in last_ts if track[1] == TRANSFER_TRACK
    }
    if args.expect_transfer_track and not transfer_tracks:
        fail(
            "no events on the transfer-engine track (tid == (1<<20)-1) — "
            "did the run enable the transfer engine and carry any traffic?"
        )

    conservation = ""
    if args.expect_fetch_conservation:
        if fetch_issue_events == 0:
            fail(
                "no fetch-issue events — did the run enable prefetch "
                "(--prefetch-clusters > 0)?"
            )
        if dropped:
            conservation = (
                f"; fetch conservation skipped: {dropped} events dropped"
            )
        elif issued_tokens != resolved_tokens:
            fail(
                f"fetch conservation: {issued_tokens} tokens issued but "
                f"{resolved_tokens} landed or canceled"
            )
        else:
            conservation = (
                f"; fetch conservation: {issued_tokens} tokens issued = "
                "landed + canceled"
            )

    print(
        f"check_trace: OK: {checked} events on {len(last_ts)} tracks "
        f"({len(worker_tracks)} worker), monotone per-track ts, balanced spans"
        + (f" (balance skipped: {dropped} dropped)" if dropped else "")
        + conservation
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
