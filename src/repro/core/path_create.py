"""Path creation: the four-phase pipeline of Section 3.3.

    "Path creation consists of three phases: (1) create sequence of
    stages, (2) combine stages into path object, and (3) establish
    (initialize) stages.  During a fourth and final phase, path
    transformation rules are applied to the path."

``path_create`` is the library's ``pathCreate(Router r, Attrs a)``;
``path_delete`` is ``pathDelete(Path p)``.  The Scout infrastructure never
creates or destroys paths implicitly — these functions are only ever
called by routers (SHELL, boot-time device routers) or by applications.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional

from .attributes import (PA_INQ_LEN, PA_OUTQ_LEN, PA_SPECIALIZE, PA_TRACE,
                         Attrs, as_attrs)
from .errors import PathCreationError
from .path import Path
from .queues import BWD_IN, BWD_OUT, FWD_IN, FWD_OUT
from .router import NextHop, Router
from . import specialize as _specialize
from .transform import TransformRegistry

#: Safety cap on path length; the paper's longest demonstration path has 6
#: stages, so hitting this indicates a routing loop in createStage logic.
MAX_PATH_LENGTH = 64

#: Hook type for admission control: called with the path-under-creation
#: after every stage is appended; raises AdmissionError to abort.
AdmissionHook = Callable[[Path], None]


def path_create(router: Router, attrs: Optional[Mapping[str, Any]] = None,
                transforms: Optional[TransformRegistry] = None,
                admission: Optional[AdmissionHook] = None,
                specialize: Optional[bool] = None) -> Path:
    """Create a path starting at *router* with invariants *attrs*.

    Parameters
    ----------
    router:
        The router on which creation is invoked; contributes the first
        stage and the first routing decision.
    attrs:
        The invariants describing the desired path (arbitrary name/value
        pairs).  ``PA_INQ_LEN``/``PA_OUTQ_LEN`` size the path queues.
    transforms:
        Transformation rules to run in phase 4 (omitted = no rules, the
        paper's "this time does not include the application of any
        transformations" baseline).
    admission:
        Optional admission-control hook consulted as the path grows, so a
        denied path aborts before establish runs.
    specialize:
        Whether the path may run an ``exec``-generated fused function in
        place of the recursive walk (DESIGN.md §11).  One rule resolves
        it: a ``PA_SPECIALIZE`` attribute wins, then this argument when
        not ``None``, then :data:`repro.core.specialize.DEFAULT_SPECIALIZE`
        (on).  ``False`` pins the path to the reference walk.

    Raises
    ------
    PathCreationError
        If the first router refuses to contribute a stage, the chain
        exceeds :data:`MAX_PATH_LENGTH`, or any establish hook fails.
    """
    attrs = as_attrs(attrs)
    path = Path(attrs, queue_lengths=_queue_lengths(attrs))

    # Phase 1: create the sequence of stages, following routing decisions
    # until a router returns no next hop (maximum-length path reached).
    current: Optional[NextHop] = NextHop(router, None, attrs)  # type: ignore[arg-type]
    enter_index = -1
    while current is not None:
        hop_attrs = current.attrs if current.attrs is not None else attrs
        try:
            stage, next_hop = current.router.create_stage(enter_index, hop_attrs)
        except NotImplementedError as exc:
            raise PathCreationError(str(exc)) from exc
        if stage is None:
            if not path.stages:
                raise PathCreationError(
                    f"router {current.router.name} refused to start a path "
                    f"with attrs {attrs.snapshot()!r}")
            break  # router declined: path ends at the previous stage
        path._append_stage(stage)
        if admission is not None:
            admission(path)
        if len(path.stages) > MAX_PATH_LENGTH:
            raise PathCreationError(
                f"path exceeded {MAX_PATH_LENGTH} stages; routing loop "
                f"through {path.routers()[-4:]}")
        current = next_hop
        if current is not None:
            enter_index = current.service.index if current.service else -1

    # Admission grants follow the path's lifetime, not the caller's
    # memory: the grant recorded during phase 1 is returned automatically
    # when the path is deleted — including pooled paths drained behind
    # the creator's back and paths whose establish fails below.
    if admission is not None:
        release = getattr(admission, "release", None)
        if release is not None:
            path.add_delete_hook(release)

    # Phase 2: combine the stages into the path object (chain interfaces).
    path._link_interfaces()

    # Phase 3: establish — per-stage initialization that may depend on the
    # existence of the entire path.
    try:
        path._establish()
    except Exception as exc:
        path.delete()
        raise PathCreationError(
            f"establish failed for path {path.routers()}: {exc}") from exc

    # Phase 4: apply global transformation rules to fixpoint.
    if transforms is not None:
        applied = transforms.apply_all(path)
        if applied:
            path.attrs["_transforms_applied"] = tuple(applied)

    # Phase 5: observability.  A truthy PA_TRACE invariant carries the
    # observatory that instruments the path; running after the transforms
    # means the probes wrap the final (possibly optimized) deliver
    # functions.  Duck-typed so the core stays free of upward imports.
    tracer = attrs.get(PA_TRACE)
    if tracer is not None:
        instrument = getattr(tracer, "instrument", None)
        if instrument is not None:
            instrument(path)

    # Specialize: with the transformation fixpoint reached (and any
    # probes wrapped), the deliver pointers are final — generate each
    # direction's fused function.  Later set_deliver/wrap_deliver calls
    # bump the path's generation counter and regeneration happens
    # transparently before the next message.
    chosen = attrs.get(PA_SPECIALIZE)
    if chosen is None:
        chosen = specialize
    if chosen is None:
        chosen = _specialize.DEFAULT_SPECIALIZE
    path.specialize = bool(chosen)
    path.specialize_chains()
    return path


def path_delete(path: Path) -> None:
    """Destroy *path* (the paper's ``pathDelete``)."""
    path.delete()


def _queue_lengths(attrs: Attrs) -> Dict[int, Optional[int]]:
    """Derive per-role queue capacities from creation attributes.

    The input queue bound applies to both directions' inputs and likewise
    for outputs; paths that need asymmetric queues resize them in an
    establish hook.
    """
    lengths: Dict[int, Optional[int]] = {}
    if PA_INQ_LEN in attrs:
        lengths[FWD_IN] = attrs[PA_INQ_LEN]
        lengths[BWD_IN] = attrs[PA_INQ_LEN]
    if PA_OUTQ_LEN in attrs:
        lengths[FWD_OUT] = attrs[PA_OUTQ_LEN]
        lengths[BWD_OUT] = attrs[PA_OUTQ_LEN]
    return lengths
