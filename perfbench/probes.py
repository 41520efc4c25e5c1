"""Spans and simulation capture, installed around the program's public calls.

The benchmark times the program from outside: :class:`Recorder` replaces
public functions and methods of ``repro`` with wrappers for the duration
of the timed part of a run, and puts the originals back afterwards.

Two things are always captured, because the end-to-end metrics and the
output checks need them and they cost one wrapper call per simulation:

- every simulator run call (``GPU.run``, ``run_dwf``): its host time, the
  modelled counters it returned, and the results it wrote to device
  memory, tied to the workload that built the memory image;
- the time of the first such call, which ends ``setup_s`` (and, in a
  set-up-only process, calls ``on_first_sim`` with that time).

With tracing on, every wrapped call also records a span (name, layer,
start, end, parent, run id) in memory, and ``SM.step`` calls are counted
per ``GPU.run`` rather than kept as spans.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass

from common import now

#: Layers of the self-time table, in the order the program's work flows.
LAYERS = (
    "import", "rt.scene", "rt.kdtree", "rt.reference", "workloads.graph",
    "cache", "kernels", "simt.init", "simt.run", "dwf.run", "sweep",
    "experiments", "verify",
)


def mode_of(config) -> str:
    """The ``repro.api.MODES`` name a machine configuration was made for."""
    if config.spawn.enabled:
        if config.memory.ideal:
            return "spawn_ideal"
        return "spawn_conflicts" if config.spawn.bank_conflicts else "spawn"
    if config.scheduling == "block":
        return "pdom_block"
    return "pdom_ideal" if config.memory.ideal else "pdom_warp"


@dataclass
class Simulation:
    """What one simulator run call produced, as the checks need it."""

    label: str
    model: str                # "gpu" or "dwf"
    workload: object          # the Workload that built the memory image
    config: object            # GPUConfig
    finished: bool            # every thread retired inside the budget
    cycles: int
    aggregate: object         # SMStats summed over SMs
    per_sm: list              # SMStats per SM
    rays_completed: int
    dram_transactions: int
    grid_threads: int
    host_s: float
    results: tuple | None     # (t or level, triangle or flag) per slot

    @property
    def sm_cycles(self) -> int:
        return sum(int(stats.cycles) for stats in self.per_sm)


class Recorder:
    """Per-process span store plus the simulation capture."""

    def __init__(self, t0: float, run_id: str, traced: bool,
                 on_first_sim=None):
        self.t0 = t0
        self.run_id = run_id
        self.traced = traced
        self.on_first_sim = on_first_sim
        #: Finished and open spans: [name, layer, start, end, parent, args].
        self.spans: list[list] = []
        self._open: list[int] = []
        self.simulations: list[Simulation] = []
        self.first_sim: float | None = None
        self.sm_steps = 0
        self.reference_rays = 0
        self._images: dict[int, tuple] = {}
        self._workloads: dict[int, object] = {}
        self._patches: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def begin(self, name: str, layer: str) -> None:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.spans.append([name, layer, now(), None, parent, None])

    def end(self, args: dict | None = None) -> None:
        span = self.spans[self._open.pop()]
        span[3] = now()
        span[5] = args

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """A span around one of the benchmark's own calls."""
        self.begin(name, layer)
        try:
            yield
        finally:
            self.end()

    def self_times(self) -> dict[str, float]:
        """Seconds per layer: each span's duration minus its children's."""
        own = [span[3] - span[2] for span in self.spans]
        for span in self.spans:
            if span[4] >= 0:
                own[span[4]] -= span[3] - span[2]
        totals = {layer: 0.0 for layer in LAYERS}
        for span, seconds in zip(self.spans, own):
            totals[span[1]] = totals.get(span[1], 0.0) + seconds
        return totals

    def root_seconds(self) -> float:
        """Time covered by spans at all: the sum of the root spans."""
        return sum(span[3] - span[2] for span in self.spans if span[4] < 0)

    def chrome_trace(self, pid: int, extra: dict) -> dict:
        """The spans as a Chrome ``trace_event`` document (times in µs
        from the start of the workload's process)."""
        events = [{"ph": "M", "pid": pid, "tid": 0, "name": "process_name",
                   "args": {"name": f"perfbench {self.run_id}"}}]
        for index, (name, layer, start, end, parent, args) in \
                enumerate(self.spans):
            payload = {"span_id": index, "parent": parent,
                       "run_id": self.run_id}
            if args:
                payload.update(args)
            events.append({
                "ph": "X", "pid": pid, "tid": 0, "name": name, "cat": layer,
                "ts": round((start - self.t0) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3), "args": payload})
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": dict(extra, run_id=self.run_id,
                                  ts_unit="us since process spawn")}

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        wrapper = functools.wraps(original)(make(original))
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _wrapping(self, name: str, layer: str, after=None,
                  counts_rays: bool = False):
        """Wrapper factory: a span around the call when tracing, then
        ``after(result, *args)`` on every call. ``counts_rays`` adds the
        batch size of a reference tracer call (its ``origins`` argument)
        to :attr:`reference_rays`."""
        recorder = self
        traced = self.traced

        def make(original):
            def wrapper(*args, **kwargs):
                if traced:
                    if counts_rays:
                        origins = (args[1] if len(args) > 1
                                   else kwargs["origins"])
                        recorder.reference_rays += len(origins)
                    recorder.begin(name, layer)
                try:
                    result = original(*args, **kwargs)
                finally:
                    if traced:
                        recorder.end()
                if after is not None:
                    after(result, *args)
                return result
            return wrapper
        return make

    def _timed_run(self, name: str, layer: str, capture):
        """Wrapper factory for a simulator run call: always timed, the
        first call's entry kept, ``capture(result, host_s, *args,
        **kwargs)`` after each call; a span (with the ``SM.step`` count)
        when tracing."""
        recorder = self
        traced = self.traced

        def make(original):
            def run(*args, **kwargs):
                start = now()
                if recorder.first_sim is None:
                    recorder.first_sim = start
                    if recorder.on_first_sim is not None:
                        recorder.on_first_sim(start)
                steps = recorder.sm_steps
                if traced:
                    recorder.begin(name, layer)
                try:
                    result = original(*args, **kwargs)
                finally:
                    if traced:
                        recorder.end({"sm_steps": recorder.sm_steps - steps})
                capture(result, now() - start, *args, **kwargs)
                return result
            return run
        return make

    def install(self) -> None:
        """Wrap the program's public calls (capture always, spans when
        tracing). Imports are done by the caller, inside its import span."""
        import repro.harness.cache as cache
        import repro.harness.runner as runner
        import repro.kernels.layout as layout
        import repro.simt.dwf as dwf
        from repro.simt.gpu import GPU

        def remember_workload(workload, *args):
            if workload.graph is None:
                self._workloads[id(workload.origins)] = workload

        def remember_image(image, workload):
            self._images[id(image.global_mem)] = (image, workload)

        def remember_ablation_image(image, tree, origins, *args):
            remember_image(image, self._workloads.get(id(origins)))

        self._patch(cache.WorkloadCache, "workload", self._wrapping(
            "WorkloadCache.workload", "cache", after=remember_workload))
        self._patch(runner, "image_for_workload", self._wrapping(
            "image_for_workload", "kernels", after=remember_image))
        self._patch(layout, "build_memory_image", self._wrapping(
            "build_memory_image", "kernels", after=remember_ablation_image))
        self._patch(GPU, "run", self._timed_run(
            "GPU.run", "simt.run", self._capture_gpu))
        self._patch(dwf, "run_dwf", self._timed_run(
            "run_dwf", "dwf.run", self._capture_dwf))
        if self.traced:
            self._install_spans()

    def _install_spans(self) -> None:
        import repro.harness.experiments as experiments
        import repro.harness.runner as runner
        import repro.harness.sweep as sweep
        import repro.kernels.persistent as persistent
        import repro.kernels.traditional as traditional
        from repro.simt.gpu import GPU
        from repro.simt.sm import SM

        recorder = self
        for attr in ("trace_rays", "path_trace_rays"):
            self._patch(runner, attr,
                        self._wrapping(attr, "rt.reference", counts_rays=True))
        # The secondary-ray derivation is booked with the reference tracer:
        # both turn a built scene into the batch a workload simulates.
        for attr, layer in (
                ("make_scene", "rt.scene"), ("build_kdtree", "rt.kdtree"),
                ("gi_rays", "rt.reference"), ("shadow_rays", "rt.reference"),
                ("reflection_rays", "rt.reference"),
                ("make_graph", "workloads.graph"),
                ("reference_bfs", "workloads.graph"),
                ("launch_for_workload", "kernels")):
            self._patch(runner, attr, self._wrapping(attr, layer))
        self._patch(traditional, "traditional_program",
                    self._wrapping("traditional_program", "kernels"))
        self._patch(persistent, "persistent_launch_spec",
                    self._wrapping("persistent_launch_spec", "kernels"))
        self._patch(GPU, "__init__", self._wrapping("GPU.__init__",
                                                   "simt.init"))
        self._patch(runner.RunResult, "verify",
                    self._wrapping("RunResult.verify", "verify"))
        self._patch(experiments, "run_sweep",
                    self._wrapping("run_sweep", "sweep"))
        self._patch(sweep, "execute_job",
                    self._wrapping("execute_job", "sweep"))
        for name in ("table1", "table2", "table3", "table4", "fig3", "fig7",
                     "fig8", "fig9", "fig10", "ablation_dwf",
                     "ablation_persistent", "pathtrace", "bfs"):
            self._patch(experiments, name,
                        self._wrapping(name, "experiments"))

        def sm_step(original):
            # Per-cycle: counted, never kept as a span.
            def step(sm, cycle):
                recorder.sm_steps += 1
                return original(sm, cycle)
            return step

        self._patch(SM, "step", sm_step)

    def uninstall(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- capture -----------------------------------------------------------

    def _capture_gpu(self, stats, host_s, gpu, max_cycles=None) -> None:
        image, workload = self._images.get(id(gpu.global_mem), (None, None))
        config = gpu.config
        label = self._label(workload, mode_of(config))
        if gpu.launch.entry_kernel == "persist":
            label += " (persistent threads)"
        self.simulations.append(Simulation(
            label=label, model="gpu", workload=workload, config=config,
            finished=gpu.done, cycles=int(stats.cycles),
            aggregate=stats.sm_stats, per_sm=list(stats.per_sm),
            rays_completed=int(stats.rays_completed),
            dram_transactions=int(stats.dram_transactions),
            grid_threads=int(gpu.launch.num_threads), host_s=host_s,
            results=None if image is None else image.results()))

    def _capture_dwf(self, result, host_s, config, program, entry_kernel,
                     global_mem, const_mem, num_threads, *,
                     max_cycles=None, **ignored) -> None:
        image, workload = self._images.get(id(global_mem), (None, None))
        budget = max_cycles if max_cycles is not None else config.max_cycles
        self.simulations.append(Simulation(
            label=self._label(workload, "dwf"), model="dwf",
            workload=workload, config=config,
            finished=result.cycles < budget, cycles=int(result.cycles),
            aggregate=result.stats, per_sm=[result.stats],
            rays_completed=int(result.rays_completed),
            dram_transactions=int(result.stats.dram_transactions),
            grid_threads=int(num_threads), host_s=host_s,
            results=None if image is None else image.results()))

    @staticmethod
    def _label(workload, mode: str) -> str:
        if workload is None:
            return f"?:{mode}"
        return f"{workload.scene_name}/{workload.ray_kind}:{mode}"

