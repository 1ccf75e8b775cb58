"""One fresh-process set-up of a workload; prints its seconds.

    PYTHONPATH=src python3 perfbench/setup_probe.py memory_d9

Set-up is what a user pays before the first result: the imports plus
the kernel's ``prepare()`` for the shot workloads, the imports plus
plane and scheduler construction for ``fig10_sweep``, and the imports
plus a server answering its first ``/healthz`` for ``service_mix``.
Interpreter start-up is excluded.
"""

import sys
import time

START = time.perf_counter()


def shot_kernel(spec_kind: str) -> None:
    from repro import campaigns
    from repro.campaigns.runner import shot_engine
    if spec_kind == "memory":
        spec = campaigns.MemorySpec(distance=9, p=0.01, samples=4096,
                                    region="centered", batch_size=2048)
    else:
        spec = campaigns.EndToEndSpec(distance=9, p=0.01, p_ano=0.3,
                                      shots=16, batch_size=16)
    kernel, _, _ = shot_engine(spec)
    kernel.prepare()


def arch() -> None:
    from repro import campaigns  # noqa: F401 - the runner users go through
    from repro.arch.qubit_plane import QubitPlane
    from repro.arch.scheduler import GreedyScheduler
    GreedyScheduler(QubitPlane(11, 11))


def service() -> None:
    import http.client
    import shutil
    import tempfile
    import threading
    from pathlib import Path

    from repro.campaigns.executors import InlineExecutor
    from repro.service import ServiceApp, make_server

    root = Path(__file__).resolve().parent.parent / ".perfbench"
    root.mkdir(exist_ok=True)
    store = Path(tempfile.mkdtemp(prefix="setup-store-", dir=root))
    app = ServiceApp(store, threads=1,
                     executor_factory=lambda: InlineExecutor(
                         whole_request=False))
    server = make_server(app, "127.0.0.1", 0)
    serving = threading.Thread(target=server.serve_forever,
                               kwargs={"poll_interval": 0.05})
    serving.start()
    try:
        conn = http.client.HTTPConnection("127.0.0.1",
                                          server.server_address[1],
                                          timeout=30)
        conn.request("GET", "/healthz")
        response = conn.getresponse()
        response.read()
        conn.close()
        if response.status != 200:
            raise RuntimeError(f"/healthz answered {response.status}")
        elapsed = time.perf_counter() - START
    finally:
        server.shutdown()
        server.server_close()
        app.close()
        serving.join()
        shutil.rmtree(store, ignore_errors=True)
    return elapsed


if __name__ == "__main__":
    workload = sys.argv[1]
    if workload == "service_mix":
        print(service())
    else:
        {"memory_d9": lambda: shot_kernel("memory"),
         "endtoend_pano03": lambda: shot_kernel("endtoend"),
         "fig10_sweep": arch}[workload]()
        print(time.perf_counter() - START)
