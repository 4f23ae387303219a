"""E6 (Section 4.4): frame-size -> CPU correlation and admission control.

"Our experiments show that there is a good correlation between the
average size of a frame (in bits) and the average amount of CPU time it
takes to decode a frame ... the path execution timings are used to derive
the model parameters, which in turn, are used for admission control."

Phase 1 measures each clip on the running system and fits the linear
model from the paths' own accounting.  Phase 2 plays an admission
scenario: streams are admitted until the predicted CPU is exhausted, and
a stream that does not fit is offered reduced-quality (every-Nth-frame)
playback instead.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from ..admission.control import CpuAdmission, FrameCostModel, theoretical_frame_us
from ..core.errors import AdmissionError
from ..mpeg.clips import (CANYON, FLOWER, NEPTUNE, PAPER_CLIPS, ClipProfile,
                          clip_by_name)
from .testbed import Testbed, frames_budget


class ClipSample(NamedTuple):
    clip: str
    avg_frame_bits: float
    measured_frame_us: float
    theoretical_frame_us: float


class AdmissionDecision(NamedTuple):
    request: str
    admitted: bool
    predicted_utilization: float
    committed_after: float
    suggested_skip: Optional[int]


def measure_clip_cost(profile: ClipProfile,
                      nframes: Optional[int] = None,
                      seed: int = 0) -> Tuple[float, float]:
    """Returns (avg frame bits, measured CPU us per frame) from a live run."""
    if nframes is None:
        nframes = frames_budget(profile, default_cap=150)
    testbed = Testbed(seed=seed)
    source = testbed.add_video_source(profile, dst_port=6100, seed=seed,
                                      nframes=nframes)
    kernel = testbed.build_scout(rate_limited_display=False)
    session = kernel.start_video(profile, (str(source.ip), 7200),
                                 local_port=6100)
    testbed.start_all()
    testbed.run_until_sources_done()
    decoder = session.path.stage_of("MPEG").decoder
    frames = max(1, decoder.frames_decoded)
    avg_bits = decoder.bits_decoded / frames
    frame_us = session.path.stats.cycles / testbed.world.cpu.mhz / frames
    return avg_bits, frame_us


def fit_model(seed: int = 0) -> Tuple[FrameCostModel, List[ClipSample]]:
    """Fit the frame-size -> CPU model from all four paper clips."""
    model = FrameCostModel()
    samples = []
    for profile in PAPER_CLIPS:
        bits, micros = measure_clip_cost(profile, seed=seed)
        model.add_sample(bits, profile.pixels, micros)
        samples.append(ClipSample(profile.name, bits, micros,
                                  theoretical_frame_us(profile)))
    model.fit()
    return model, samples


def admission_scenario(model: FrameCostModel,
                       headroom: float = 0.95) -> List[AdmissionDecision]:
    """Admit streams until the CPU is spoken for; offer reduced quality."""
    control = CpuAdmission(model, headroom=headroom)
    decisions = []

    def attempt(profile: ClipProfile, fps: float, count: int = 1,
                take_fallback: bool = False):
        for index in range(count):
            label = f"{profile.name}@{fps:.0f}fps"
            if count > 1:
                label += f" #{index + 1}"
            predicted = control.predicted_utilization(profile, fps)
            try:
                control.admit(profile, fps)
                decisions.append(AdmissionDecision(
                    label, True, predicted, control.committed_utilization,
                    None))
            except AdmissionError:
                skip = control.suggest_skip(profile, fps)
                decisions.append(AdmissionDecision(
                    label, False, predicted, control.committed_utilization,
                    skip))
                if take_fallback and skip is not None:
                    # "The user may choose to view the video with reduced
                    # quality": re-admit at every-Nth-frame playback.
                    control.admit(profile, fps, skip=skip)
                    reduced = control.predicted_utilization(profile, fps,
                                                            skip)
                    decisions.append(AdmissionDecision(
                        f"{label} (1/{skip})", True, reduced,
                        control.committed_utilization, skip))

    # The paper's E3 mix fits: one Neptune at 30fps plus Canyons at 10fps.
    attempt(NEPTUNE, 30.0)
    attempt(CANYON, 10.0, count=4)
    # A full-rate Flower no longer fits; it is admitted at reduced quality
    # with its skipped frames dropped at the adapter (E7).
    attempt(FLOWER, 30.0, take_fallback=True)
    # The remaining Canyons contend for what is left.
    attempt(CANYON, 10.0, count=4)
    return decisions


class AdmissionReport(NamedTuple):
    model: FrameCostModel
    samples: List[ClipSample]
    decisions: List[AdmissionDecision]


def run_admission(seed: int = 0) -> AdmissionReport:
    model, samples = fit_model(seed)
    return AdmissionReport(model, samples, admission_scenario(model))


def format_admission(report: AdmissionReport) -> str:
    model, samples, decisions = report
    correlation = model.correlation()
    lines = [
        "E6 (Sec 4.4): frame size vs decode CPU, and admission control",
        f"{'clip':<15}{'avg bits':>10}{'measured us':>13}{'model us':>10}",
    ]
    for s in samples:
        lines.append(f"{s.clip:<15}{s.avg_frame_bits:>10.0f}"
                     f"{s.measured_frame_us:>13.1f}"
                     f"{s.theoretical_frame_us:>10.1f}")
    lines.append(f"correlation(bits, us) = {correlation:.4f}   "
                 "(paper: 'a good correlation')")
    lines.append("")
    lines.append(f"{'request':<22}{'admitted':>9}{'pred util':>11}"
                 f"{'committed':>11}{'fallback':>10}")
    for d in decisions:
        fallback = f"1/{d.suggested_skip}" if d.suggested_skip else "-"
        lines.append(f"{d.request:<22}{str(d.admitted):>9}"
                     f"{d.predicted_utilization:>10.1%}"
                     f"{d.committed_after:>10.1%}{fallback:>10}")
    return "\n".join(lines)


def check_admission(report: AdmissionReport) -> None:
    """Frame size predicts decode CPU, and admission control commits the
    CPU up to the headroom and no further."""
    model, samples, decisions = report
    # "A good correlation between the average size of a frame (in bits)
    # and the average amount of CPU time it takes to decode a frame."
    assert model.correlation() > 0.95
    # The fitted bits+pixels model tracks the measured cost per clip.
    for sample in samples:
        pixels = clip_by_name(sample.clip).pixels
        predicted = model.predict_frame_us(sample.avg_frame_bits, pixels)
        assert abs(predicted - sample.measured_frame_us) \
            <= 0.10 * sample.measured_frame_us, sample
    # Scenario shape: Neptune + 4 Canyons fit; Flower at full rate does
    # not but a reduced-quality fallback is found and admitted.
    by_request = {}
    for d in decisions:
        by_request.setdefault(d.request, d)  # keep first occurrence
    assert by_request["Neptune@30fps"].admitted
    assert all(by_request[f"Canyon@10fps #{i}"].admitted
               for i in range(1, 5))
    flower = by_request["Flower@30fps"]
    assert not flower.admitted
    assert flower.suggested_skip is not None
    fallback = by_request[f"Flower@30fps (1/{flower.suggested_skip})"]
    assert fallback.admitted
    # The committed utilization never exceeds the headroom.
    assert all(d.committed_after <= 0.95 + 1e-9 for d in decisions)
