"""Table 2: frame rate under ICMP flood load.

"The additional load consists of a flood of ICMP ECHO requests (generated
with ping -f).  In the Scout case, the video path is run at the default
round robin priority, whereas the path handling ICMP requests is run at
the next lower priority.  In contrast, Linux handles ICMP and video
packets identically inside the kernel."

The flood is emergent, not scripted: the flooder is a faithful ``ping -f``
(a new request per reply, floor of 100/s), so a kernel that answers
floods quickly gets flooded quickly — which is exactly why the two
kernels diverge.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

from ..mpeg.clips import NEPTUNE, ClipProfile
from ..sim.world import POLICY_RR
from .testbed import Testbed, frames_budget

#: The paper's Table 2, fps: system -> (unloaded, loaded).
PAPER_TABLE2: Dict[str, tuple] = {
    "Scout": (49.9, 49.8),
    "Linux": (39.2, 22.7),
}


class Table2Row(NamedTuple):
    system: str
    unloaded_fps: float
    loaded_fps: float
    paper_unloaded: float
    paper_loaded: float
    flood_rate_pps: float

    @property
    def delta_pct(self) -> float:
        if not self.unloaded_fps:
            return 0.0
        return (self.loaded_fps - self.unloaded_fps) / self.unloaded_fps * 100

    @property
    def paper_delta_pct(self) -> float:
        return (self.paper_loaded - self.paper_unloaded) / self.paper_unloaded * 100


def measure_under_load(kernel_name: str, loaded: bool,
                       profile: ClipProfile = NEPTUNE,
                       nframes: Optional[int] = None,
                       seed: int = 0):
    """Returns (fps, flood_rate_pps) for one cell of the table."""
    if nframes is None:
        nframes = frames_budget(profile)
    testbed = Testbed(seed=seed)
    source = testbed.add_video_source(profile, dst_port=6100, seed=seed,
                                      nframes=nframes)
    flooder = testbed.add_flooder() if loaded else None
    if kernel_name == "scout":
        kernel = testbed.build_scout(rate_limited_display=False)
        # Paper setup: video at default RR priority 0; the boot-time ICMP
        # path already runs at the next lower priority (1).
        session = kernel.start_video(profile, (str(source.ip), 7200),
                                     local_port=6100, policy=POLICY_RR,
                                     priority=0)
    elif kernel_name == "linux":
        kernel = testbed.build_linux(rate_limited_display=False)
        session = kernel.start_video(profile, (str(source.ip), 7200),
                                     local_port=6100)
    else:
        raise ValueError(f"unknown kernel {kernel_name!r}")
    testbed.start_all()
    testbed.run_until_sources_done()
    elapsed_s = testbed.world.now / 1e6
    rate = flooder.requests_sent / elapsed_s if flooder and elapsed_s else 0.0
    return session.achieved_fps(), rate


def run_table2(nframes: Optional[int] = None, seed: int = 0) -> List[Table2Row]:
    rows = []
    for system, kernel_name in (("Scout", "scout"), ("Linux", "linux")):
        unloaded, _ = measure_under_load(kernel_name, loaded=False,
                                         nframes=nframes, seed=seed)
        loaded, rate = measure_under_load(kernel_name, loaded=True,
                                          nframes=nframes, seed=seed)
        paper_unloaded, paper_loaded = PAPER_TABLE2[system]
        rows.append(Table2Row(system, unloaded, loaded,
                              paper_unloaded, paper_loaded, rate))
    return rows


def format_table2(rows: List[Table2Row]) -> str:
    lines = [
        "Table 2: Neptune frame rate under ping -f load (measured vs paper)",
        f"{'System':<8}{'unloaded':>10}{'loaded':>10}{'delta':>9}"
        f"{'(paper delta)':>15}{'flood pps':>11}",
    ]
    for row in rows:
        lines.append(
            f"{row.system:<8}{row.unloaded_fps:>10.1f}{row.loaded_fps:>10.1f}"
            f"{row.delta_pct:>8.1f}%{row.paper_delta_pct:>14.1f}%"
            f"{row.flood_rate_pps:>11.0f}")
    return "\n".join(lines)


def check_table2(rows: List[Table2Row]) -> None:
    """The paper's shape: Scout loses almost nothing (-0.2%), Linux loses
    a large fraction (-42.1%)."""
    scout = next(r for r in rows if r.system == "Scout")
    linux = next(r for r in rows if r.system == "Linux")
    assert scout.delta_pct > -5.0, scout
    assert linux.delta_pct < -25.0, linux
    assert scout.loaded_fps > linux.loaded_fps
    # The emergent flood rates explain the result: the kernel that answers
    # promptly gets flooded hard, the one that deprioritizes does not.
    assert linux.flood_rate_pps > 1000
