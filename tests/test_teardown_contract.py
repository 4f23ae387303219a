"""The teardown contract, stated once: ``path.delete()`` is the whole
teardown.

The paper charges every resource to the path and releases it with
``pathDelete``.  Here, after ``path.delete()`` and nothing else, no
holder of the path still refers to it: the flow cache, memory
admission, a path pool (whether it created the path or was donated it),
a path group and the kernel's own books (sink ports, early-discard
filters).  Each holder hears the deletion from the path itself.
"""

import pytest

from repro.admission import MemoryAdmission
from repro.core import Msg, flow_key_frame, path_create
from repro.core.attributes import PA_NET_PARTICIPANTS, Attrs
from repro.kernel import ScoutKernel
from repro.mpeg.clips import NEPTUNE
from repro.multipath import PathPool
from repro.net import EthAddr, IpAddr, build_udp_frame
from repro.net.common import PA_LOCAL_PORT
from repro.sim import SimWorld

REMOTE_MAC, REMOTE_IP = EthAddr("02:00:00:00:00:02"), IpAddr("10.0.0.2")
LOCAL_IP = IpAddr("10.0.0.1")
REMOTE = (str(REMOTE_IP), 7000)
PORT = 6000


def booted_kernel():
    world = SimWorld(seed=1)
    kernel = ScoutKernel(
        world, world.new_segment(), local_ip=str(LOCAL_IP), udp_sink=True,
        admission=MemoryAdmission(system_budget=1 << 30,
                                  per_path_grant=1 << 20))
    kernel.arp.add_entry(REMOTE_IP, REMOTE_MAC)
    return kernel


def flow_frame(kernel, port, sport=7000):
    return build_udp_frame(REMOTE_MAC, kernel.device.mac, REMOTE_IP,
                           LOCAL_IP, sport, port, b"x")


def pin(kernel, path, port, sport):
    """Cache *path* as the classification of one flow to *port*."""
    frame = flow_frame(kernel, port, sport)
    assert kernel.flow_cache.insert(flow_key_frame(frame), Msg(frame), path)


def cached(kernel, port, sport=7000):
    """The path the flow cache holds for one flow to *port*, or None."""
    frame = flow_frame(kernel, port, sport)
    return kernel.flow_cache.lookup(flow_key_frame(frame), Msg(frame))


# Each holder: build a path it holds, return ``(path, holds)`` where
# ``holds()`` is True while the holder still refers to the path.

def flow_cache_holder():
    kernel = booted_kernel()
    path = kernel.start_udp_sink(PORT, remote=REMOTE)
    other = kernel.start_udp_sink(PORT + 1, remote=REMOTE)
    for sport in (7000, 7001):
        pin(kernel, path, PORT, sport)
    pin(kernel, other, PORT + 1, 7000)
    cache = kernel.flow_cache
    invalidations = cache.invalidations

    def holds():
        assert cached(kernel, PORT + 1) is other
        if any(cached(kernel, PORT, sport) is path for sport in (7000, 7001)):
            return True
        assert cache.invalidations == invalidations + 2
        return False
    return path, holds


def admission_holder():
    kernel = booted_kernel()
    before = kernel.admission.committed
    path = kernel.start_udp_sink(PORT, remote=REMOTE)
    assert kernel.admission.committed > before
    return path, lambda: kernel.admission.committed != before


def pool_attrs():
    return Attrs({PA_NET_PARTICIPANTS: REMOTE, PA_LOCAL_PORT: PORT})


def pool_created_holder():
    kernel = booted_kernel()
    pool = PathPool(kernel.test)
    path = pool.acquire(pool_attrs())
    assert pool.release(path)
    return path, lambda: len(pool) != 0 or path.pid in pool._birth_signature


def pool_donated_holder():
    kernel = booted_kernel()
    pool = PathPool(kernel.test)
    path = path_create(kernel.test, pool_attrs())
    assert pool.release(path)
    return path, lambda: len(pool) != 0 or path.pid in pool._birth_signature


def group_holder():
    kernel = booted_kernel()
    vgroup = kernel.start_video_group(NEPTUNE, REMOTE, members=2,
                                      local_port=PORT)
    path, sibling = vgroup.group.members
    pin(kernel, path, PORT, 7000)
    pin(kernel, sibling, PORT, 7001)

    def holds():
        sibling_pinned = cached(kernel, PORT, 7001) is not None
        return path in vgroup.group.members or sibling_pinned
    return path, holds


def sink_port_holder():
    kernel = booted_kernel()
    path = kernel.start_udp_sink(PORT, remote=REMOTE)
    return path, lambda: PORT in kernel.sink_paths


def skip_filter_holder():
    kernel = booted_kernel()
    session = kernel.start_video(NEPTUNE, REMOTE, local_port=PORT, skip=2)
    path = session.path
    assert kernel.frame_skip(path) == 2
    return path, lambda: path.pid in kernel._skip_filters


HOLDERS = {
    "flow_cache": flow_cache_holder,
    "admission": admission_holder,
    "pool_created": pool_created_holder,
    "pool_donated": pool_donated_holder,
    "group": group_holder,
    "sink_paths": sink_port_holder,
    "skip_filters": skip_filter_holder,
}


@pytest.mark.parametrize("holder", sorted(HOLDERS))
def test_after_delete_no_holder_refers_to_the_path(holder):
    path, holds = HOLDERS[holder]()
    assert holds()
    path.delete()
    assert not holds()


def test_a_deleted_sink_frees_its_port():
    kernel = booted_kernel()
    dead = kernel.start_udp_sink(PORT, remote=REMOTE)
    dead.delete()
    assert PORT not in kernel.sink_paths
    fresh = kernel.start_udp_sink(PORT, remote=REMOTE)
    assert kernel.sink_paths[PORT] is fresh
