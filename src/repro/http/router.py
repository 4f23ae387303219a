"""The HTTP router: the application atop the Figure 3 web-server graph.

HTTP bridges two kinds of paths, exactly the way SHELL bridges command
and video paths in the MPEG application:

* a **connection path** per client (HTTP -> TCP -> IP -> ETH), carrying
  requests up (BWD) and responses down (FWD) — "one per TCP connection"
  being the paper's suggested path granularity;
* a **file path** per requested document (VFS -> UFS -> SCSI), created on
  first use with the ``PA_FILE`` and ``PA_FILE_SEQUENTIAL`` invariants —
  web documents are read sequentially, so the UFS stage skips caching,
  the Section 2.2 example of exploiting a web path's global knowledge.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..core.attributes import PA_NET_PARTICIPANTS, Attrs
from ..core.graph import register_router
from ..core.message import Msg
from ..core.path import Path
from ..core.path_create import path_create
from ..core.queues import BWD_OUT
from ..core.router import DemuxResult, NextHop, Router, Service
from ..core.stage import BWD, FWD, Stage, forward, turn_around
from ..fs.messages import FsReply, FsRequest
from ..fs.ufs_router import PA_FILE, PA_FILE_SEQUENTIAL
from ..net.common import PA_LOCAL_PORT, charge

#: Request parsing + response assembly cost.
HTTP_PROC_US = 15.0


class HttpStage(Stage):
    """HTTP's contribution to a connection path."""

    def __init__(self, router: "HttpRouter", exit_service):
        super().__init__(router, None, exit_service)
        self.requests_served = 0
        self.set_deliver(FWD, self._down)
        self.set_deliver(BWD, self._request)

    def _down(self, iface, msg, direction: int, **kwargs):
        return forward(iface, msg, direction, **kwargs)

    def _request(self, iface, msg: Msg, direction: int, **kwargs):
        router: HttpRouter = self.router  # type: ignore[assignment]
        charge(msg, HTTP_PROC_US)
        response = router.handle_request(msg.to_bytes())
        self.requests_served += 1
        reply = Msg(response)
        for key in ("ip_dst_override", "udp_dport_override"):
            if key in msg.meta:
                reply.meta[key] = msg.meta[key]
        # Address the reply to whoever asked (the SHELL precedent): a
        # connection path serving as a group member or a pooled spare may
        # carry requests from clients other than its creation-time
        # participant.  The classifiers stash ``ip_src``/``eth_src`` on
        # the way up; on a message injected straight into the path, IP's
        # and ETH's receive stages record them instead.
        ip_src = msg.meta.get("ip_src")
        if "ip_dst_override" not in reply.meta and ip_src is not None:
            reply.meta["ip_dst_override"] = ip_src
        eth_src = msg.meta.get("eth_src")
        if "eth_dst_override" not in reply.meta and eth_src is not None:
            reply.meta["eth_dst_override"] = eth_src
        turn_around(iface, reply, direction)
        charge(msg, reply.meta.get("cost_us", 0.0))
        return None


@register_router("HttpRouter")
class HttpRouter(Router):
    """A minimal HTTP/1.0 GET server."""

    SERVICES = ("<net:net", "<files:fsClient")

    def __init__(self, name: str):
        super().__init__(name)
        #: Open file paths, one per document ("one per open file").
        self._file_paths: Dict[str, Path] = {}
        #: Optional :class:`~repro.multipath.PathPool` of warm connection
        #: paths, installed via :meth:`use_connection_pool`.
        self._connection_pool = None
        self.requests = 0
        self.not_found = 0

    # -- connection pooling ------------------------------------------------------

    def use_connection_pool(self, pool) -> None:
        """Serve connection paths from *pool*: a client connect becomes a
        warm O(1) acquire instead of a four-phase ``path_create``, and a
        close parks the path for the next connect with the same
        invariants."""
        self._connection_pool = pool

    def connection_path_for(self, client: Tuple[str, int],
                            local_port: int = 80) -> Path:
        """Return a connection path for *client* — pooled when a pool is
        installed, cold-created otherwise."""
        attrs = Attrs({PA_NET_PARTICIPANTS: tuple(client),
                       PA_LOCAL_PORT: local_port})
        if self._connection_pool is not None:
            return self._connection_pool.acquire(attrs)
        return path_create(self, attrs)

    def release_connection(self, path: Path) -> bool:
        """Close a connection path: park it for reuse when pooled (True),
        delete it otherwise (False)."""
        if self._connection_pool is not None:
            return self._connection_pool.release(path)
        path.delete()
        return False

    # -- file paths -------------------------------------------------------------

    def _vfs_target(self):
        files = self.service("files").sole_link()
        return files.peer_of(self.service("files"))

    def file_path_for(self, filename: str) -> Path:
        """Return (creating on first use) the path serving *filename*."""
        path = self._file_paths.get(filename)
        if path is None or path.state == "deleted":
            vfs_router, _service = self._vfs_target()
            path = path_create(vfs_router,
                               Attrs({PA_FILE: filename,
                                      PA_FILE_SEQUENTIAL: True}))
            self._file_paths[filename] = path
        return path

    def read_document(self, filename: str) -> Optional[bytes]:
        """Read a whole document through its file path (synchronously)."""
        from ..core.errors import PathCreationError

        try:
            path = self.file_path_for(filename)
        except PathCreationError:
            return None
        path.deliver(FsRequest(FsRequest.READ, 0, None), FWD)
        reply = path.q[BWD_OUT].try_dequeue()
        if not isinstance(reply, FsReply) or not reply.ok:
            return None
        return reply.data

    # -- request handling -----------------------------------------------------------

    def handle_request(self, raw: bytes) -> bytes:
        self.requests += 1
        try:
            line = raw.split(b"\r\n", 1)[0].decode("utf-8")
            method, target, _version = line.split(" ", 2)
        except (ValueError, UnicodeDecodeError):
            return self._response(400, b"Bad Request")
        if method != "GET":
            return self._response(501, b"Not Implemented")
        body = self.read_document(target)
        if body is None:
            self.not_found += 1
            return self._response(404, b"Not Found")
        return self._response(200, body)

    @staticmethod
    def _response(status: int, body: bytes) -> bytes:
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  501: "Not Implemented"}.get(status, "Error")
        head = (f"HTTP/1.0 {status} {reason}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Content-Type: text/html\r\n\r\n")
        return head.encode("utf-8") + body

    # -- connection paths ----------------------------------------------------------------

    def create_stage(self, enter_service: int, attrs: Attrs
                     ) -> Tuple[Optional[Stage], Optional[NextHop]]:
        participants = attrs.get(PA_NET_PARTICIPANTS)
        if participants is None:
            return None, None
        net = self.service("net")
        if len(net.links) != 1:
            return None, None
        peer_router, peer_service = net.links[0].peer_of(net)
        hop_attrs = attrs
        if PA_LOCAL_PORT not in attrs:
            hop_attrs = attrs.extended(**{PA_LOCAL_PORT: 80})
        stage = HttpStage(self, net)
        return stage, NextHop(peer_router, peer_service, hop_attrs)

    def demux(self, msg: Msg, service: Optional[Service],
              offset: int = 0) -> DemuxResult:
        return DemuxResult.drop(
            f"{self.name}: connection paths are bound by TCP port")
