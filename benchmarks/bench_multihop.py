"""Multi-hop forwarding acceptance benchmarks: PMTUD pays for itself.

Two claims gate the forwarding/discovery subsystem:

* **differential** — a 3-hop chain with per-link MTUs 1500/600/1500
  delivers byte-identical payloads to the single-hop baseline, both
  with an MTU-oblivious sender (routers fragment in flight) and after
  path-MTU discovery — and the converged sender puts **zero** fragments
  on the wire, at the source or at any hop;
* **goodput** — on a lossy min-MTU link, post-PMTUD steady state must
  sustain at least 1.5x the always-fragmenting baseline's goodput:
  losing any one fragment loses the whole datagram, so the baseline
  decays with the fragment count per datagram while the resegmenting
  sender decays only with the datagram count.

Results land in ``benchmarks/results/BENCH_multihop.json`` (sections
``differential`` and ``loss_goodput``), uploaded by CI's bench-smoke
job.
"""

from repro.experiments import run_loss_amplification, run_multihop

#: Acceptance floor (ISSUE acceptance criteria).
MIN_GOODPUT_RATIO = 1.5

BLOB_SIZE = 20_000
LOSS_RATE = 0.25
LOSS_BLOB_SIZE = 100_000


def test_differential_delivery(record_bench):
    runs = run_multihop(blob_size=BLOB_SIZE)
    by_label = {r.label: r for r in runs}
    baseline = by_label["single-hop baseline"]
    inflight = by_label["3-hop, in-flight frag"]
    pmtud = by_label["3-hop, PMTUD"]

    record_bench("multihop", "differential", {
        "blob_bytes": BLOB_SIZE,
        "runs": [r._asdict() for r in runs],
    })

    # Byte-identity across all three data paths.
    assert baseline.identical and inflight.identical and pmtud.identical
    assert (baseline.bytes_delivered == inflight.bytes_delivered
            == pmtud.bytes_delivered == BLOB_SIZE)
    # The oblivious sender really did force in-flight fragmentation...
    assert inflight.inflight_fragments > 0
    # ...and the converged sender put zero fragments on the wire.
    assert pmtud.pmtu == 600
    assert pmtud.sender_fragments == 0
    assert pmtud.inflight_fragments == 0


def test_pmtud_goodput_on_lossy_min_mtu_path(record_bench):
    result = run_loss_amplification(loss_rate=LOSS_RATE,
                                    blob_size=LOSS_BLOB_SIZE)
    record_bench("multihop", "loss_goodput", {
        "loss_rate": result.loss_rate,
        "blob_bytes": LOSS_BLOB_SIZE,
        "frag_datagrams": result.frag_datagrams,
        "frag_bytes": result.frag_bytes,
        "pmtud_datagrams": result.pmtud_datagrams,
        "pmtud_bytes": result.pmtud_bytes,
        "goodput_ratio": round(result.ratio, 2),
    })
    assert result.pmtud_bytes > result.frag_bytes
    assert result.ratio >= MIN_GOODPUT_RATIO, (
        f"post-PMTUD steady state must sustain >= {MIN_GOODPUT_RATIO}x "
        f"the always-fragmenting baseline on the lossy min-MTU path "
        f"(got {result.ratio:.2f}x: frag {result.frag_bytes} B, "
        f"pmtud {result.pmtud_bytes} B)")
