//! The distributed resident engine: a drop-in twin of
//! [`lms_smooth::Resident`] that runs every part as a forked rank process
//! instead of a pool worker, in 2D ([`DistResidentEngine`]) and 3D
//! ([`DistResidentEngine3`]) alike.
//!
//! Construction is *shared with* the in-process engine — a
//! [`DistResident`] wraps a [`Resident`] and reuses its blocks,
//! schedule, color classes and stat weights verbatim — so the
//! only difference between `engine.inner().smooth(mesh, t)` and
//! `engine.smooth(mesh)` is the transport. That is exactly what the
//! cross-transport oracle (`tests/oracle.rs`) pins: bit-identical
//! coordinates *and* bit-identical reports, exchange accounting
//! included.
//!
//! Runs are **fault tolerant**: [`smooth_ft`] drives the process
//! transport through `lms_smooth::drive_resident_ft_with`, so a rank that
//! dies, stalls past the read timeout, or corrupts its stream is
//! detected, respawned from the last iteration-boundary checkpoint, and
//! the lost work replayed — with a final state bit-identical to a
//! failure-free run (`tests/chaos.rs` pins this). When rank processes
//! cannot be forked at all, [`smooth`] degrades gracefully to the
//! in-process resident engine, which computes the same answer.
//!
//! Rank processes are spawned per run and reaped before [`smooth`]
//! returns (`full_gathers == 1 && full_scatters == 1` still holds: the
//! block is gathered once, resident in its rank for the whole run, and
//! scattered once).
//!
//! [`smooth`]: DistResident::smooth
//! [`smooth_ft`]: DistResident::smooth_ft

use crate::error::DistError;
use crate::fault::FaultPlan;
use crate::socket::{Listener, SocketSpec, Supervisor};
use crate::transport::ProcessTransport;
use lms_mesh::TriMesh;
use lms_mesh3d::{SmoothEngine3, SmoothParams3, TetMesh};
use lms_part::{ExchangeSchedule, Partition, PartitionMethod};
use lms_smooth::domain::{DomainConfig, SmoothDomain};
use lms_smooth::resident::ResidentBlock;
use lms_smooth::transport::drive_resident_ft_with;
use lms_smooth::{
    DomainEngine, FtPolicy, FtStats, Resident, SmoothEngine, SmoothParams, SmoothReport,
};
use lms_trace::{NullTrace, PhaseBreakdown, Recorder, TraceSink, TransportProfile};
use std::io;

/// Which byte-stream substrate a distributed run uses — the rungs of the
/// graceful-degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportMode {
    /// Probe the ladder top-down at engine construction: TCP loopback →
    /// Unix socket → fork/pipes → in-process. Each rung that cannot be
    /// established (bind/connect/accept/fork failure) degrades to the
    /// next; the last rung degrades to the in-process engine via
    /// [`DistError::Spawn`].
    Auto,
    /// Forked workers dialling back over TCP loopback — the single-host
    /// stand-in for the multi-node deployment shape.
    TcpLoopback,
    /// Forked workers over a Unix-domain socket under the temp dir.
    UnixSocket,
    /// Forked workers over anonymous pipes (the PR 5/6 backend).
    Pipes,
    /// No rank processes at all: [`smooth_ft`] fails with
    /// [`DistError::Spawn`] and [`smooth`] computes in-process — the
    /// ladder's floor, always available.
    ///
    /// [`smooth_ft`]: DistResident::smooth_ft
    /// [`smooth`]: DistResident::smooth
    InProcess,
}

impl TransportMode {
    /// The rung sequence this mode tries, top first.
    pub fn ladder(self) -> Vec<TransportMode> {
        match self {
            TransportMode::Auto => vec![
                TransportMode::TcpLoopback,
                TransportMode::UnixSocket,
                TransportMode::Pipes,
                TransportMode::InProcess,
            ],
            mode => vec![mode],
        }
    }
}

/// Knobs of a fault-tolerant distributed run.
#[derive(Debug, Clone)]
pub struct FtOptions {
    /// Checkpoint cadence and recovery budget of the drive loop.
    pub policy: FtPolicy,
    /// `poll(2)` bound on every coordinator read, in milliseconds: a rank
    /// producing nothing for this long is diagnosed as stalled, killed
    /// and respawned from the checkpoint. Negative disables the bound.
    pub read_timeout_ms: i32,
    /// Scripted fault injection — [`FaultPlan::none`] outside the chaos
    /// suite.
    pub faults: FaultPlan,
    /// Phase profiling: ranks time their sweep phases and report them in
    /// every `Report` frame; the coordinator times its routing work.
    /// Observation only — coordinates and reports (minus the breakdown)
    /// are bit-identical either way. Off by default.
    pub profile: bool,
    /// Byte-stream substrate (and degradation ladder) of the run.
    /// Defaults to [`TransportMode::Pipes`] — the established single-host
    /// backend; pick [`TransportMode::Auto`] to probe sockets first.
    pub mode: TransportMode,
    /// Connection supervision knobs of the socket rungs (retry/backoff
    /// and accept bounds); ignored by the pipe rung.
    pub supervisor: Supervisor,
    /// Event-driven coordinator with compute/communication overlap: one
    /// `poll(2)` multiplexed over every rank stream, eager delta
    /// forwarding, and eager round release (see the `transport` module
    /// docs). On by default; turning it off restores the serialized
    /// drain/forward loop — the overlap oracle — with bit-identical
    /// coordinates and reports either way.
    pub overlap: bool,
}

impl Default for FtOptions {
    fn default() -> Self {
        FtOptions {
            policy: FtPolicy::default(),
            // generous: a false stall positive costs a full recovery
            read_timeout_ms: 30_000,
            faults: FaultPlan::none(),
            profile: false,
            mode: TransportMode::Pipes,
            supervisor: Supervisor::default(),
            overlap: true,
        }
    }
}

/// Establish the transport for one rung of the ladder.
fn spawn_mode_transport<'a, const C: usize, D: SmoothDomain<C>>(
    mode: TransportMode,
    dom: &'a D,
    cfg: &DomainConfig,
    blocks: &'a [ResidentBlock<C>],
    schedule: &'a ExchangeSchedule,
    options: &FtOptions,
) -> Result<ProcessTransport<'a, C, D>, DistError> {
    let socket_spec = match mode {
        TransportMode::Auto => unreachable!("Auto resolves to a concrete rung via ladder()"),
        TransportMode::InProcess => {
            // the ladder's floor: signal "no rank processes" so smooth()
            // degrades to the in-process engine
            return Err(DistError::Spawn(io::Error::other(
                "in-process rung of the degradation ladder",
            )));
        }
        TransportMode::Pipes => {
            return ProcessTransport::spawn(
                dom,
                cfg,
                blocks,
                schedule,
                options.read_timeout_ms,
                options.faults.clone(),
                options.profile,
                options.overlap,
            );
        }
        TransportMode::TcpLoopback => SocketSpec::tcp_loopback(),
        TransportMode::UnixSocket => SocketSpec::temp_unix(),
    };
    ProcessTransport::spawn_forked(
        &socket_spec,
        dom,
        cfg,
        blocks,
        schedule,
        options.read_timeout_ms,
        options.faults.clone(),
        options.profile,
        options.overlap,
        &options.supervisor,
    )
}

/// Walk the mode ladder until a rung comes up. A rung failing to
/// *establish* (spawn veto, bind/accept failure, refused connect)
/// degrades to the next; the last rung's failure — and any error that is
/// not an establishment failure — propagates.
fn spawn_laddered<'a, const C: usize, D: SmoothDomain<C>>(
    dom: &'a D,
    cfg: &DomainConfig,
    blocks: &'a [ResidentBlock<C>],
    schedule: &'a ExchangeSchedule,
    options: &FtOptions,
) -> Result<ProcessTransport<'a, C, D>, DistError> {
    let modes = options.mode.ladder();
    for (i, &mode) in modes.iter().enumerate() {
        match spawn_mode_transport(mode, dom, cfg, blocks, schedule, options) {
            Ok(transport) => return Ok(transport),
            Err(e) => {
                let establishment =
                    matches!(e, DistError::Spawn(_) | DistError::ConnRefused { .. });
                if establishment && i + 1 < modes.len() {
                    eprintln!(
                        "lms-dist: {mode:?} transport unavailable ({e}); \
                         degrading to {:?}",
                        modes[i + 1]
                    );
                    continue;
                }
                return Err(e);
            }
        }
    }
    unreachable!("ladder() never returns an empty rung list")
}

/// Multi-process resident smoothing over any [`DomainEngine`]: one rank
/// process per part, wire frames over pipes or sockets, coordinates and
/// reports bit-identical to the wrapped in-process [`Resident`] engine
/// (hence to serial part-major Gauss–Seidel) — including runs that detect
/// and recover rank failures. One wire serialisation covers both
/// dimensions: only the handshake's coordinate dimension differs.
#[derive(Debug, Clone)]
pub struct DistResident<const C: usize, E> {
    inner: Resident<C, E>,
}

/// The distributed resident engine of triangle meshes.
pub type DistResidentEngine = DistResident<3, SmoothEngine>;

/// The distributed resident engine of tetrahedral meshes.
pub type DistResidentEngine3 = DistResident<4, SmoothEngine3>;

impl<const C: usize, E: DomainEngine<C>> DistResident<C, E> {
    /// Build the engine for `mesh` under `params` and an existing
    /// decomposition (Gauss–Seidel parameters only).
    pub fn new(mesh: &E::Mesh, params: E::Params, partition: Partition) -> Self {
        DistResident { inner: Resident::new(mesh, params, partition) }
    }

    /// Convenience: decompose `mesh` into `num_parts` with `method`, then
    /// build the engine.
    pub fn by_method(
        mesh: &E::Mesh,
        params: E::Params,
        num_parts: usize,
        method: PartitionMethod,
    ) -> Self {
        DistResident { inner: Resident::by_method(mesh, params, num_parts, method) }
    }

    /// The wrapped in-process engine (shared blocks, schedule, classes) —
    /// the bit-identity oracle to compare runs against.
    pub fn inner(&self) -> &Resident<C, E> {
        &self.inner
    }

    /// Number of rank processes a run forks (= number of parts).
    pub fn num_ranks(&self) -> usize {
        self.inner.blocks().len()
    }

    /// The mesh's coordinates, checked against the engine's vertex count.
    fn coords_of<'m>(&self, mesh: &'m mut E::Mesh) -> &'m mut [E::Point] {
        let coords = E::coords_mut(mesh);
        assert_eq!(
            coords.len(),
            self.inner.partition().len(),
            "engine was built for a different mesh"
        );
        coords
    }

    /// Fault-tolerant distributed run with explicit options: fork one
    /// rank per part, drive the checkpoint/recovery loop over the process
    /// transport, reap the ranks. On success the result is bit-identical
    /// to the in-process [`Resident::smooth`] — whether or not ranks
    /// failed along the way — and [`FtStats`] says what fault tolerance
    /// did. Errors are typed: [`DistError::Spawn`] means no rank group
    /// could be created (degrade to the in-process engine); anything else
    /// means the recovery budget ran out.
    pub fn smooth_ft(
        &self,
        mesh: &mut E::Mesh,
        options: &FtOptions,
    ) -> Result<(SmoothReport, FtStats), DistError> {
        let (report, stats, _) = self.smooth_ft_with(mesh, options, &mut NullTrace)?;
        Ok((report, stats))
    }

    /// [`smooth_ft`](Self::smooth_ft) with an explicit driver-side
    /// [`TraceSink`], additionally returning the coordinator's
    /// [`TransportProfile`] (all-zero unless `options.profile` is set).
    /// The building block of [`smooth_profiled`](Self::smooth_profiled);
    /// exposed so callers can plug custom sinks.
    pub fn smooth_ft_with<S: TraceSink>(
        &self,
        mesh: &mut E::Mesh,
        options: &FtOptions,
        sink: &mut S,
    ) -> Result<(SmoothReport, FtStats, TransportProfile), DistError> {
        let coords = self.coords_of(mesh);
        let dom = self.inner.engine().domain();
        let cfg = self.inner.engine().domain_config();
        let transport = spawn_laddered(
            &dom,
            &cfg,
            self.inner.blocks(),
            self.inner.exchange_schedule(),
            options,
        )?;
        self.drive(&dom, &cfg, transport, coords, &options.policy, sink)
    }

    /// Drive the fault-tolerant loop over an established `transport`, then
    /// shut the rank group down. A failed run still tears the ranks down,
    /// but reports the run's error, not the teardown's.
    fn drive<S: TraceSink>(
        &self,
        dom: &E::Domain<'_>,
        cfg: &DomainConfig,
        mut transport: ProcessTransport<'_, C, E::Domain<'_>>,
        coords: &mut [E::Point],
        policy: &FtPolicy,
        sink: &mut S,
    ) -> Result<(SmoothReport, FtStats, TransportProfile), DistError> {
        let result = drive_resident_ft_with(
            dom,
            cfg,
            self.inner.elem_weights(),
            self.inner.interface_classes().len(),
            &mut transport,
            coords,
            policy,
            sink,
        );
        match result {
            Ok((report, stats)) => {
                let profile = transport.take_profile();
                transport.shutdown()?;
                Ok((report, stats, profile))
            }
            Err(e) => {
                // teardown diagnostics must not shadow the run's failure
                let _ = transport.shutdown();
                Err(e)
            }
        }
    }

    /// Profiled fault-tolerant run: forces `options.profile`, records
    /// every driver span into a [`Recorder`] and attaches the composed
    /// [`PhaseBreakdown`] (driver spans + rank sweep phases + routing
    /// matrix) to the report. The coordinates and every other report
    /// field stay bit-identical to an unprofiled
    /// [`smooth_ft`](Self::smooth_ft) run; the recorder is returned for
    /// chrome-trace export.
    pub fn smooth_profiled(
        &self,
        mesh: &mut E::Mesh,
        options: &FtOptions,
    ) -> Result<(SmoothReport, FtStats, Recorder), DistError> {
        let mut opts = options.clone();
        opts.profile = true;
        let mut recorder = Recorder::new(0);
        let (mut report, stats, profile) = self.smooth_ft_with(mesh, &opts, &mut recorder)?;
        record_overlap_span(&mut recorder, &profile);
        let mut breakdown = PhaseBreakdown::default();
        breakdown.apply_span_totals(&recorder.span_totals());
        breakdown.transport = profile;
        report.phase_breakdown = Some(breakdown);
        Ok((report, stats, recorder))
    }

    /// Distributed resident Gauss–Seidel smoothing with the default
    /// fault-tolerance options. When rank processes cannot be spawned at
    /// all (fork/pipe refused), degrades gracefully to the in-process
    /// resident engine — same answer, shared address space. Any other
    /// failure (recovery budget exhausted, abnormal teardown) panics with
    /// the typed diagnosis.
    pub fn smooth(&self, mesh: &mut E::Mesh) -> SmoothReport {
        self.smooth_with(mesh, &FtOptions::default())
    }

    /// [`smooth`](Self::smooth) with explicit options (used by the chaos
    /// suite to script faults through the degradation path).
    pub fn smooth_with(&self, mesh: &mut E::Mesh, options: &FtOptions) -> SmoothReport {
        match self.smooth_ft(mesh, options) {
            Ok((report, _)) => report,
            Err(e @ (DistError::Spawn(_) | DistError::ConnRefused { .. })) => {
                eprintln!(
                    "lms-dist: cannot establish a rank group ({e}); \
                     degrading to the in-process resident engine"
                );
                self.inner.smooth(mesh, self.num_ranks().max(1))
            }
            Err(e) => panic!("distributed smoothing failed beyond recovery: {e}"),
        }
    }

    /// Serve a run over **external standalone workers**: accept one
    /// connection per part on `listener` (each worker identifies itself
    /// by rank — launch them with `lms-tool dist-worker --connect <addr>
    /// --rank <p>` anywhere the address is reachable), then drive the
    /// same fault-tolerant loop as [`smooth_ft`](Self::smooth_ft).
    /// Workers rebuild the engine from the shared problem parameters, so
    /// only run state crosses the wire.
    pub fn smooth_ft_external(
        &self,
        mesh: &mut E::Mesh,
        listener: Listener,
        options: &FtOptions,
    ) -> Result<(SmoothReport, FtStats), DistError> {
        let coords = self.coords_of(mesh);
        let dom = self.inner.engine().domain();
        let cfg = self.inner.engine().domain_config();
        let transport = ProcessTransport::listen(
            listener,
            &dom,
            &cfg,
            self.inner.blocks(),
            self.inner.exchange_schedule(),
            options.read_timeout_ms,
            options.profile,
            options.overlap,
            &options.supervisor,
        )?;
        let (report, stats, _) =
            self.drive(&dom, &cfg, transport, coords, &options.policy, &mut NullTrace)?;
        Ok((report, stats))
    }
}

/// Materialise the coordinator's accumulated hidden-wait total as one
/// `"overlap"` chrome-trace span, anchored so it *ends* at export time.
/// The overlap multiplexer can only account hidden wait as a counter
/// (the hidden windows interleave with forwarding work inside one
/// drain call), so the timeline gets a single span whose duration is
/// the honest total rather than per-window marks.
fn record_overlap_span(recorder: &mut Recorder, profile: &TransportProfile) {
    if profile.hidden_wait_ns > 0 {
        let t1 = lms_trace::now_ns();
        recorder.record_span("overlap", 0, 0, t1.saturating_sub(profile.hidden_wait_ns), t1);
    }
}

/// Convenience: decompose, build the distributed engine and run it in
/// one call. Parameters are moved, never cloned.
pub fn smooth_distributed(
    mesh: &mut TriMesh,
    params: SmoothParams,
    num_parts: usize,
    method: PartitionMethod,
) -> SmoothReport {
    DistResidentEngine::by_method(mesh, params, num_parts, method).smooth(mesh)
}

/// Convenience: the 3D twin of [`smooth_distributed`].
pub fn smooth_distributed3(
    mesh: &mut TetMesh,
    params: SmoothParams3,
    num_parts: usize,
    method: PartitionMethod,
) -> SmoothReport {
    DistResidentEngine3::by_method(mesh, params, num_parts, method).smooth(mesh)
}
