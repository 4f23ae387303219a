"""Table 1: coarse-grain comparison of Scout and Linux.

"The table lists the maximum decoding rate in frames per second for a
selection of four video clips ... both systems run on the same machine
(a 300MHz 21064 Alpha), use essentially the same MPEG code, and receive
the compressed video over the network."

Procedure per cell: stream the clip at full speed (MFLOW window flow
control is the only throttle), max-rate display mode, measure the
presentation rate over the whole run.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

from ..mpeg.clips import PAPER_CLIPS, ClipProfile
from .testbed import Testbed, frames_budget

#: The paper's Table 1, fps: clip -> (scout, linux).
PAPER_TABLE1: Dict[str, tuple] = {
    "Flower": (44.7, 37.1),
    "Neptune": (49.9, 39.2),
    "RedsNightmare": (67.1, 55.5),
    "Canyon": (245.9, 183.3),
}


class Table1Row(NamedTuple):
    clip: str
    nframes: int
    scout_fps: float
    linux_fps: float
    paper_scout_fps: float
    paper_linux_fps: float

    @property
    def speedup(self) -> float:
        return self.scout_fps / self.linux_fps if self.linux_fps else 0.0

    @property
    def paper_speedup(self) -> float:
        return self.paper_scout_fps / self.paper_linux_fps


def measure_max_rate(kernel_name: str, profile: ClipProfile,
                     nframes: Optional[int] = None, seed: int = 0) -> float:
    """Maximum decode rate (fps) for one clip on one kernel."""
    if nframes is None:
        nframes = frames_budget(profile)
    testbed = Testbed(seed=seed)
    source = testbed.add_video_source(profile, dst_port=6100, seed=seed,
                                      nframes=nframes)
    if kernel_name == "scout":
        kernel = testbed.build_scout(rate_limited_display=False)
        session = kernel.start_video(profile, (str(source.ip), 7200),
                                     local_port=6100)
    elif kernel_name == "linux":
        kernel = testbed.build_linux(rate_limited_display=False)
        session = kernel.start_video(profile, (str(source.ip), 7200),
                                     local_port=6100)
    else:
        raise ValueError(f"unknown kernel {kernel_name!r}")
    testbed.start_all()
    testbed.run_until_sources_done()
    return session.achieved_fps()


def run_table1(nframes: Optional[int] = None, seed: int = 0) -> List[Table1Row]:
    """Regenerate every row of Table 1."""
    rows = []
    for profile in PAPER_CLIPS:
        budget = nframes if nframes is not None else frames_budget(profile)
        scout_fps = measure_max_rate("scout", profile, budget, seed)
        linux_fps = measure_max_rate("linux", profile, budget, seed)
        paper_scout, paper_linux = PAPER_TABLE1[profile.name]
        rows.append(Table1Row(profile.name, budget, scout_fps, linux_fps,
                              paper_scout, paper_linux))
    return rows


def format_table1(rows: List[Table1Row]) -> str:
    lines = [
        "Table 1: max decode rate [fps]  (measured vs paper)",
        f"{'Video':<15}{'frames':>7}{'Scout':>9}{'(paper)':>9}"
        f"{'Linux':>9}{'(paper)':>9}{'speedup':>9}{'(paper)':>9}",
    ]
    for row in rows:
        lines.append(
            f"{row.clip:<15}{row.nframes:>7}"
            f"{row.scout_fps:>9.1f}{row.paper_scout_fps:>9.1f}"
            f"{row.linux_fps:>9.1f}{row.paper_linux_fps:>9.1f}"
            f"{row.speedup:>8.2f}x{row.paper_speedup:>8.2f}x")
    return "\n".join(lines)


def check_table1(rows: List[Table1Row]) -> None:
    """Scout beats Linux on every clip, each cell is within 20% of the
    paper, and the ordering across clips matches."""
    for row in rows:
        assert row.scout_fps > row.linux_fps, row
        assert abs(row.scout_fps - row.paper_scout_fps) \
            <= 0.20 * row.paper_scout_fps, row
        assert abs(row.linux_fps - row.paper_linux_fps) \
            <= 0.20 * row.paper_linux_fps, row
    ordering = sorted(rows, key=lambda r: r.scout_fps)
    paper_ordering = sorted(rows, key=lambda r: PAPER_TABLE1[r.clip][0])
    assert [r.clip for r in ordering] == [r.clip for r in paper_ordering]
