"""Standard path transformation rules for the Scout kernel.

Two rules straight out of the paper:

* **fuse-udp-checksum-into-mpeg** (Section 4.1): "it would be
  straight-forward to integrate the (optional) UDP checksum with the
  reading of the MPEG data.  This would require a path-transformation
  rule that matches for MPEG being run directly on top of UDP [through
  MFLOW]."  The rule disables UDP's separate verification pass and
  charges a fused (single-pass) cost inside MPEG's read instead — the
  classic ILP saving: one traversal of the payload instead of two.

* **measure-proc-time** (Section 4.2): "the initial function in the
  ETH-stage of the router is modified to measure processing time and to
  update the path attribute that keeps track of the average processing
  time."  The rule attaches a traversal probe at the path boundary —
  since ETH is the BWD entry stage, the cost delta observed around the
  whole traversal is exactly what wrapping ETH's initial function would
  see, but the probe stays outside the stage chain so the chain remains
  specializable (DESIGN.md §11).
"""

from __future__ import annotations

from .. import params
from ..core.attributes import PA_AVG_PROC_TIME
from ..core.stage import BWD
from ..core.transform import TransformRegistry, TransformRule, all_of, traverses
from ..mpeg.router import PA_VIDEO_PROFILE
from ..net.common import charge

#: Fused checksum touches the payload once inside the decoder's existing
#: read loop instead of in a separate pass: model it at half the
#: stand-alone per-byte cost.
FUSED_CHECKSUM_FACTOR = 0.5

#: Attribute recording that the fusion rule rewired this path.
PA_CHECKSUM_FUSED = "_checksum_fused"


def _udp_checksum_enabled(path) -> bool:
    try:
        stage = path.stage_of("UDP")
    except KeyError:
        return False
    return getattr(stage, "use_checksum", False)


def make_fuse_checksum_rule() -> TransformRule:
    guard = all_of(traverses("MPEG", "MFLOW", "UDP"), _udp_checksum_enabled)

    def fuse(path) -> None:
        udp_stage = path.stage_of("UDP")
        mpeg_stage = path.stage_of("MPEG")
        udp_stage.use_checksum = False  # drop the separate pass
        original = mpeg_stage.deliver_fn(BWD)

        def fused_decode(iface, msg, direction, **kwargs):
            # The checksum rides along with MPEG's bit-level read.
            charge(msg, len(msg) * params.CHECKSUM_US_PER_BYTE
                   * FUSED_CHECKSUM_FACTOR)
            msg.meta["checksum_fused"] = True
            return original(iface, msg, direction, **kwargs)

        mpeg_stage.set_deliver(BWD, fused_decode)
        path.attrs[PA_CHECKSUM_FUSED] = True

    return TransformRule("fuse-udp-checksum-into-mpeg", guard, fuse)


def make_measure_proc_time_rule() -> TransformRule:
    def guard(path) -> bool:
        return PA_VIDEO_PROFILE in path.attrs and "ETH" in path.routers()

    def install_probe(path) -> None:
        # ETH is the path's BWD entry stage, so a probe at the path
        # boundary observes the same accumulated-cost delta the paper's
        # "initial function in the ETH-stage" modification would — while
        # leaving every deliver pointer untouched, which keeps the chain
        # specializable.
        def measured(msg, elapsed_us):
            path.stats.record_proc_time(elapsed_us)
            path.attrs[PA_AVG_PROC_TIME] = path.stats.avg_proc_time_us

        path.add_traversal_probe(BWD, measured)

    return TransformRule("measure-proc-time", guard, install_probe)


def make_fault_isolation_rule() -> TransformRule:
    """Per-router fault domains on top of paths (Section 3.6's direction:
    "software-based fault isolation (SFI) could be imposed on top of paths
    by defining each router to be in a separate fault domain").

    Every stage's deliver functions are wrapped so that an exception
    escaping one router's code is confined to that delivery: the message
    is dropped, the fault is recorded on the path, and the rest of the
    system keeps running.  This is semantically transparent for correct
    routers — exactly what a transformation rule is allowed to be.
    """

    def guard(path) -> bool:
        return bool(path.attrs.get(PA_FAULT_ISOLATION))

    def isolate(path) -> None:
        for stage in path.stages:
            for direction in (0, 1):
                original = stage.deliver_fn(direction)
                if original is None:
                    continue

                # Containment catches exceptions thrown by *downstream*
                # routers too: the chain below runs inside this try block.
                def contained(iface, msg, d, _orig=original,
                              _stage=stage, **kwargs):
                    try:
                        return _orig(iface, msg, d, **kwargs)
                    except Exception as exc:  # the fault boundary
                        faults = path.attrs.get("_router_faults")
                        if faults is None:
                            faults = path.attrs["_router_faults"] = []
                        faults.append((_stage.router.name,
                                       f"{type(exc).__name__}: {exc}"))
                        path.note_drop(
                            msg, f"fault in {_stage.router.name}: {exc}",
                            "fault_isolation")
                        return None

                stage.set_deliver(direction, contained)

    return TransformRule("isolate-router-faults", guard, isolate)


#: Request per-router fault domains for a path (Section 3.6's SFI idea).
PA_FAULT_ISOLATION = "PA_FAULT_ISOLATION"


def default_transforms() -> TransformRegistry:
    """The rule set the Scout kernel applies to every created path."""
    return TransformRegistry([
        make_fuse_checksum_rule(),
        make_measure_proc_time_rule(),
        make_fault_isolation_rule(),
    ])
