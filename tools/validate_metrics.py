#!/usr/bin/env python3
"""Validates the dbpcd admin endpoint (tools/check.sh gate).

Usage:
    validate_metrics.py --base http://HOST:PORT [options]

Default mode fetches /metrics, /healthz, /readyz and /varz from a running
daemon's admin plane and checks that

  * /metrics is well-formed Prometheus text exposition (version 0.0.4):
    every non-comment line is `name{labels} value` with a parseable value,
    and every sample belongs to a family announced by a `# TYPE` line;
  * histogram families are internally consistent: `le` bounds strictly
    ascend, cumulative bucket counts never decrease, the `+Inf` bucket
    equals `_count`, and `_sum`/`_count` are present;
  * the operational families this daemon promises are all present
    (queue depth, inflight jobs, active/parked sessions, busy workers,
    cache entries, the conversions rolling rate, request latency);
  * /healthz answers 200, /readyz answers the expected status (default
    200), and /varz parses as JSON carrying the identity keys.

With --readyz-only the script polls only /readyz (up to --retries times)
until it answers --readyz-expect — the drain-window probe: during a
graceful shutdown the endpoint must serve 503, not connection-refused.

Exits 0 when all checks pass; prints the first failure and exits 1
otherwise. Stdlib only.
"""

import argparse
import json
import re
import sys
import time
import urllib.error
import urllib.request

REQUIRED_FAMILIES = (
    "dbpc_daemon_queue_depth",
    "dbpc_daemon_inflight_jobs",
    "dbpc_daemon_active_sessions",
    "dbpc_daemon_parked_sessions",
    "dbpc_service_workers_busy",
    "dbpc_cache_entries",
    "dbpc_service_conversions_total",
    "dbpc_service_conversions_per_sec",
    "dbpc_daemon_request_us",
)

VARZ_KEYS = ("server", "uptime_s", "draining", "metrics")

SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>\S+)$"
)
TYPE_RE = re.compile(
    r"^# TYPE (?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r" (?P<kind>counter|gauge|histogram|summary|untyped)$"
)


def fail(message):
    print("validate_metrics.py: FAIL: %s" % message)
    sys.exit(1)


def fetch(base, path, timeout):
    """Returns (status_code, body_text); network errors become failures."""
    url = base.rstrip("/") + path
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as e:
        return e.code, e.read().decode("utf-8", errors="replace")
    except (urllib.error.URLError, OSError) as e:
        fail("cannot fetch %s: %s" % (url, e))


def parse_value(raw, where):
    if raw == "+Inf":
        return float("inf")
    try:
        return float(raw)
    except ValueError:
        fail("%s: unparseable sample value %r" % (where, raw))


def family_of(name, types):
    """The TYPE family a sample line belongs to, or None."""
    if name in types:
        return name
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix) and name[: -len(suffix)] in types:
            return name[: -len(suffix)]
    return None


def check_exposition(body):
    types = {}       # family -> kind
    samples = []     # (name, labels_str, value)
    for lineno, line in enumerate(body.splitlines(), 1):
        if not line:
            fail("/metrics line %d: blank line inside exposition" % lineno)
        if line.startswith("#"):
            if line.startswith("# TYPE "):
                m = TYPE_RE.match(line)
                if not m:
                    fail("/metrics line %d: bad TYPE line %r" % (lineno, line))
                if m.group("name") in types:
                    fail("/metrics line %d: duplicate TYPE for %s"
                         % (lineno, m.group("name")))
                types[m.group("name")] = m.group("kind")
            continue  # other comments (e.g. # HELP) are legal
        m = SAMPLE_RE.match(line)
        if not m:
            fail("/metrics line %d: unparseable sample %r" % (lineno, line))
        value = parse_value(m.group("value"), "/metrics line %d" % lineno)
        name = m.group("name")
        if family_of(name, types) is None:
            fail("/metrics line %d: sample %s has no preceding # TYPE"
                 % (lineno, name))
        samples.append((name, m.group("labels") or "", value))

    # Histogram consistency, per family.
    for family, kind in types.items():
        if kind != "histogram":
            continue
        buckets = []
        sums = counts = None
        for name, labels, value in samples:
            if name == family + "_bucket":
                le = re.search(r'le="([^"]+)"', labels)
                if not le:
                    fail("%s_bucket sample without an le label" % family)
                bound = (float("inf") if le.group(1) == "+Inf"
                         else float(le.group(1)))
                buckets.append((bound, value))
            elif name == family + "_sum":
                sums = value
            elif name == family + "_count":
                counts = value
        if not buckets:
            fail("histogram %s has no _bucket series" % family)
        if sums is None or counts is None:
            fail("histogram %s is missing _sum or _count" % family)
        if buckets[-1][0] != float("inf"):
            fail("histogram %s: last bucket is not le=\"+Inf\"" % family)
        for (lo_bound, lo_count), (hi_bound, hi_count) in zip(
                buckets, buckets[1:]):
            if hi_bound <= lo_bound:
                fail("histogram %s: le bounds not ascending (%g then %g)"
                     % (family, lo_bound, hi_bound))
            if hi_count < lo_count:
                fail("histogram %s: cumulative counts decrease at le=%g"
                     % (family, hi_bound))
        if buckets[-1][1] != counts:
            fail("histogram %s: +Inf bucket %g != _count %g"
                 % (family, buckets[-1][1], counts))

    present = set(types)
    for name, _, _ in samples:
        present.add(name)
    for family in REQUIRED_FAMILIES:
        if family not in present:
            fail("/metrics is missing required family %s" % family)
    return len(samples)


def check_varz(body):
    try:
        doc = json.loads(body)
    except ValueError as e:
        fail("/varz does not parse as JSON: %s" % e)
    for key in VARZ_KEYS:
        if key not in doc:
            fail("/varz is missing key %r" % key)
    if doc["server"] != "dbpcd":
        fail("/varz server is %r, want 'dbpcd'" % doc["server"])


def poll_readyz(base, expect, retries, timeout):
    last = None
    for _ in range(max(retries, 1)):
        try:
            url = base.rstrip("/") + "/readyz"
            with urllib.request.urlopen(url, timeout=timeout) as response:
                last = response.status
        except urllib.error.HTTPError as e:
            last = e.code
        except (urllib.error.URLError, OSError) as e:
            last = "unreachable (%s)" % e
        if last == expect:
            print("validate_metrics.py: /readyz answered %d" % expect)
            return
        time.sleep(0.05)
    fail("/readyz never answered %s (last: %s)" % (expect, last))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--base", required=True,
                        help="admin endpoint base URL, e.g. http://127.0.0.1:7412")
    parser.add_argument("--readyz-expect", type=int, default=200)
    parser.add_argument("--readyz-only", action="store_true",
                        help="poll /readyz only (drain-window probe)")
    parser.add_argument("--retries", type=int, default=1)
    parser.add_argument("--timeout", type=float, default=5.0)
    args = parser.parse_args()

    if args.readyz_only:
        poll_readyz(args.base, args.readyz_expect, args.retries, args.timeout)
        return

    status, body = fetch(args.base, "/metrics", args.timeout)
    if status != 200:
        fail("/metrics answered %d" % status)
    sample_count = check_exposition(body)

    status, body = fetch(args.base, "/healthz", args.timeout)
    if status != 200:
        fail("/healthz answered %d" % status)

    poll_readyz(args.base, args.readyz_expect, args.retries, args.timeout)

    status, body = fetch(args.base, "/varz", args.timeout)
    if status != 200:
        fail("/varz answered %d" % status)
    check_varz(body)

    print("validate_metrics.py: OK (%d samples, all families present)"
          % sample_count)


if __name__ == "__main__":
    main()
