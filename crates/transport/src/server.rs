//! Threaded UDP front end for [`EngineCore`].
//!
//! Each worker thread owns its *own* socket and drains it with the
//! batched I/O layer ([`crate::io`]) — there is no receiver thread and
//! no user-space demux hop:
//!
//! - On the `mmsg` backend with more than one worker, the sockets
//!   form a `SO_REUSEPORT` group bound to one address: the kernel's 4-tuple
//!   hash pins each remote source to one member socket, so every flow's
//!   datagrams arrive on one worker, in order, spread across workers by
//!   kernel RSS. If the group bind fails (platform policy, exotic
//!   kernels) the engine falls back to one shared socket.
//! - On the `fallback` backend the workers share one socket, read with
//!   classic one-datagram `recv_from` — the portable baseline the
//!   `udp_io` bench measures the batched path against.
//!
//! On a shared socket only worker 0 receives; the other workers run
//! their timers. A flow's back-to-back datagrams (an S1 and its S2, an
//! S2 and the next S1) must be judged in the order they arrived, and
//! two workers taking turns at one socket would race each other from
//! the receive to the judgment. Per-worker sockets keep each source's
//! datagrams on one worker, so every worker receives there.
//!
//! The worker that receives a datagram judges it, under the lock of
//! the datagram's shard; a datagram never locks two shards, and two
//! workers only wait on each other when both receive for one shard at
//! the same moment (counted in `lock_contended`). Shard `s`'s timers
//! belong to worker `s mod W`, so every timer wheel has one poller.
//!
//! Every worker runs the same loop ([`Worker::run`]): wait, poll
//! timers, receive and ingest. *How it waits* is the one per-rung
//! difference, and it is derived from the resolved UDP backend, not
//! selected: `wait_backend` in stats names what ran.
//!
//! - **`epoll`** (with `mmsg`, the Linux default): the worker blocks in
//!   one `epoll_wait` over its socket, its `eventfd` control bell, and
//!   a `timerfd` armed from the engine's per-worker min-deadline hint
//!   ([`EngineCore::worker_next_deadline`], O(1) per iteration). The
//!   engine's deadline waker rings the bell when another thread arms a
//!   timer earlier than the worker's hint, and [`Engine::shutdown`]
//!   rings every bell; timers fire at microsecond precision, and an
//!   idle engine parks in the kernel (a long backstop timeout bounds
//!   the wakeup rate at a few per second). If the bells cannot be
//!   created at bind the whole engine takes the blocking wait below; if
//!   one worker's epoll set or timerfd cannot, that worker alone does.
//! - **`fallback`** (with the portable backend, and the only wait off
//!   Linux): the worker blocks in the receive syscall behind an
//!   `SO_RCVTIMEO` read timeout sized from the same deadline hint,
//!   rescanned each iteration ([`EngineCore::refresh_worker_deadline`])
//!   and quantized to whole milliseconds so an unchanged horizon costs
//!   no `setsockopt`. Timer lateness is bounded by [`RECV_TIMEOUT`].
//!
//! On the `mmsg` rung each worker socket asks for coalesced receives
//! (`UDP_GRO`), so one received frame may carry a run of datagrams from
//! one source ([`RxDatagram::segments`]): the worker feeds the engine
//! by segment, [`MAX_BURST`] at a time, looking at its timers between
//! bursts so a deep receive cannot make them late.
//!
//! A stats datagram (prefix [`STATS_MAGIC`]) is answered inline by
//! whichever worker receives it, so `engine stats` works against a
//! live engine without a side channel. Mesh control datagrams ride the
//! same lane: liveness probes (`alpha_engine::mesh::PING_MAGIC`) are
//! echoed inline — so a probe round-trip measures real worker service
//! latency — and handshake replicas (`REPLICA_MAGIC`) are absorbed
//! into the engine without emitting anything.

use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use alpha_core::Timestamp;
use alpha_engine::mesh;
use alpha_engine::{EngineCore, EngineOutput, IoWorker};
use alpha_wire::FramePool;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::io::{RxDatagram, UdpBackend, UdpIo, MAX_DATAGRAM};

/// First bytes of a stats-query datagram. Starts with 0x00, which no
/// ALPHA packet type uses, so protocol traffic can never alias it.
pub const STATS_MAGIC: &[u8] = b"\x00ALPHA-ENGINE-STATS";

/// Ceiling on a worker's blocking receive window under the blocking
/// wait (and on timer lateness when the deadline computation cannot
/// help).
pub const RECV_TIMEOUT: Duration = Duration::from_millis(5);
const MIN_READ_TIMEOUT: Duration = Duration::from_millis(1);
/// Most datagrams drained into one worker burst before timers and
/// transmissions get a chance to run; bounds per-burst frame pinning.
const MAX_BURST: usize = 32;
/// `epoll_wait` backstop timeout: with no traffic, no bell and no
/// armed timer, a worker still wakes this often to re-check shutdown.
/// This is the idle-engine wakeup rate under the epoll wait (~4/s per
/// worker, vs. 200/s at [`RECV_TIMEOUT`] under the blocking wait).
#[cfg(target_os = "linux")]
const EPOLL_BACKSTOP_MS: i32 = 250;
/// Kernel receive-buffer request for every worker socket: deep enough
/// to absorb a traffic burst while workers are inside the engine.
/// Best-effort — without `CAP_NET_ADMIN` the kernel clamps the request
/// to `net.core.rmem_max`.
#[cfg(target_os = "linux")]
const RECV_BUFFER_BYTES: usize = 4 << 20;

/// One eventfd control bell per worker: `bells[w]` knocks worker `w`
/// out of `epoll_wait`, rung by the engine's deadline waker and by
/// [`Engine::shutdown`]. Built when the resolved UDP backend is `mmsg`.
#[cfg(target_os = "linux")]
type Bells = Arc<Vec<crate::epoll::EventFd>>;

#[cfg(target_os = "linux")]
thread_local! {
    /// Which engine worker this thread is, if any. The deadline waker
    /// skips ringing a worker's own bell: the worker re-reads its hint
    /// at the top of every loop iteration, so a self-wake would only
    /// add a spurious `epoll_wait` round trip.
    static CURRENT_WORKER: std::cell::Cell<Option<u32>> = const { std::cell::Cell::new(None) };
}

/// A running multi-flow engine: per-worker sockets (or one shared
/// socket) and a worker pool over one sharded flow table.
pub struct Engine {
    core: Arc<EngineCore>,
    io: UdpIo,
    shutdown: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    start: Instant,
    reuseport: bool,
    #[cfg(target_os = "linux")]
    bells: Option<Bells>,
}

/// What each verified delivery/extraction sink receives.
pub type DeliverySink = Box<dyn Fn(&EngineOutput) + Send + Sync>;

impl Engine {
    /// Bind `addr` and start `workers` worker threads over `core`.
    pub fn bind<A: ToSocketAddrs>(addr: A, core: EngineCore, workers: usize) -> io::Result<Engine> {
        Engine::bind_with_sink(addr, core, workers, None)
    }

    /// [`Engine::bind`] with an optional sink invoked (on worker
    /// threads) for every output carrying deliveries or extractions.
    pub fn bind_with_sink<A: ToSocketAddrs>(
        addr: A,
        core: EngineCore,
        workers: usize,
        sink: Option<DeliverySink>,
    ) -> io::Result<Engine> {
        let workers = workers.max(1);
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no bind addr"))?;
        let backend = crate::io::active();
        let (sockets, reuseport) = bind_worker_sockets(addr, workers, backend)?;
        // Deep receive queues decouple sender cadence from worker
        // cadence on every backend; applies to the shared fallback
        // socket and each reuseport member alike.
        #[cfg(target_os = "linux")]
        for s in &sockets {
            let _ = crate::mmsg::set_recv_buffer(s, RECV_BUFFER_BYTES);
            // Coalesced receives, here and not in `UdpIo`: the worker
            // loop is the one reader that walks a frame's segments.
            // Best-effort — without it every frame is one datagram.
            if backend == UdpBackend::Mmsg {
                let _ = crate::mmsg::set_gro(s);
            }
        }
        let core = Arc::new(core);
        core.metrics().io.set_backend(backend.name());

        // The wait is derived from the backend: mmsg workers sleep in
        // epoll sets, which need a control bell each. Bell creation is
        // all-or-nothing at bind time: if any eventfd fails the whole
        // engine degrades to the blocking wait. A worker whose epoll set
        // then fails degrades alone; `wait_backend` in stats is derived
        // from the wait each worker installed.
        #[cfg(target_os = "linux")]
        let bells: Option<Bells> = if backend == UdpBackend::Mmsg {
            match (0..workers).map(|_| crate::epoll::EventFd::new()).collect() {
                Ok(bells) => Some(Arc::new(bells)),
                Err(e) => {
                    eprintln!(
                        "alpha-transport: eventfd control bells unavailable ({e}); \
                         using the blocking wait"
                    );
                    None
                }
            }
        } else {
            None
        };

        // Per-worker min-deadline hints; under epoll the engine also
        // gets a waker that rings a worker's control bell whenever its
        // earliest deadline moves forward, so a sleeping worker re-arms
        // its timerfd instead of discovering the new timer late.
        #[cfg(target_os = "linux")]
        let waker: Option<Box<dyn Fn(u32) + Send + Sync>> = bells.as_ref().map(|bells| {
            let bells = Arc::clone(bells);
            Box::new(move |w: u32| {
                if CURRENT_WORKER.with(std::cell::Cell::get) != Some(w) {
                    bells[w as usize].ring();
                }
            }) as Box<dyn Fn(u32) + Send + Sync>
        });
        #[cfg(not(target_os = "linux"))]
        let waker: Option<Box<dyn Fn(u32) + Send + Sync>> = None;
        core.install_worker_hints(workers as u32, waker);

        let shutdown = Arc::new(AtomicBool::new(false));
        let ready = Arc::new(AtomicUsize::new(0));
        let start = Instant::now();
        let sink = sink.map(Arc::new);
        // RX frames are full-datagram sized (a recv must never truncate)
        // and separate from the engine's TX pool, whose frames are MTU
        // sized. Each worker caches two bursts' worth.
        let rx_pool = FramePool::new(MAX_DATAGRAM, MAX_BURST * 2);

        let handle = sockets[0].try_clone()?;
        let mut threads = Vec::with_capacity(workers);
        for (w, sock) in sockets.into_iter().enumerate() {
            sock.set_read_timeout(Some(RECV_TIMEOUT))?;
            let counters = core.metrics().io.register_worker();
            let io = UdpIo::with_backend(sock, backend, Arc::clone(&counters));
            let worker = Worker {
                me: w as u32,
                workers,
                shards: core.shard_count(),
                io,
                counters,
                rx_pool: rx_pool.clone(),
                core: Arc::clone(&core),
                #[cfg(target_os = "linux")]
                bells: bells.clone(),
                receives: reuseport || w == 0,
                shutdown: Arc::clone(&shutdown),
                ready: Arc::clone(&ready),
                start,
                sink: sink.clone(),
                rng: StdRng::from_entropy(),
                rx: Vec::with_capacity(MAX_BURST),
                out: EngineOutput::default(),
            };
            threads.push(std::thread::spawn(move || worker.run()));
        }
        // Wait (bounded) for every worker's wait to come up, so traffic
        // sent the instant `bind` returns meets installed epoll sets
        // rather than racing their setup. Setup is
        // milliseconds even on a loaded single-core host; a worker that
        // somehow never reports (thread spawn starvation) only costs
        // the bound — the engine still works, workers just finish
        // setting up under traffic.
        let patience = Instant::now();
        while ready.load(Ordering::Acquire) < workers && patience.elapsed() < Duration::from_secs(2)
        {
            std::thread::sleep(Duration::from_micros(50));
        }
        let io = UdpIo::with_backend(handle, backend, core.metrics().io.register_worker());
        Ok(Engine {
            core,
            io,
            shutdown,
            threads,
            start,
            reuseport,
            #[cfg(target_os = "linux")]
            bells,
        })
    }

    /// The engine core (routes, flow creation, metrics).
    #[must_use]
    pub fn core(&self) -> &Arc<EngineCore> {
        &self.core
    }

    /// Bound address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.io.socket().local_addr()
    }

    /// Whether the workers got their own `SO_REUSEPORT` sockets (false:
    /// one shared socket, either by backend choice or graceful
    /// fallback).
    #[must_use]
    pub fn per_worker_sockets(&self) -> bool {
        self.reuseport
    }

    /// Engine-relative protocol time (µs since bind).
    #[must_use]
    pub fn now(&self) -> Timestamp {
        Timestamp::from_micros(self.start.elapsed().as_micros() as u64)
    }

    /// Send pre-staged datagrams (e.g. from
    /// [`EngineCore::sign_batch`]), gathered into batched syscalls.
    pub fn transmit(&self, out: &EngineOutput) -> io::Result<()> {
        self.io.send_batch(&out.datagrams)?;
        Ok(())
    }

    /// Current stats snapshot as JSON.
    #[must_use]
    pub fn stats_json(&self) -> String {
        self.core.stats_json()
    }

    /// Signal shutdown and join every thread (what dropping does).
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        // Knock every worker out of `epoll_wait` so the shutdown is
        // seen now, not at the next backstop tick. Nothing to ring
        // under the blocking wait (its read timeouts already bound the
        // reaction time).
        #[cfg(target_os = "linux")]
        if let Some(bells) = &self.bells {
            for bell in bells.iter() {
                bell.ring();
            }
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// One socket per worker (a `SO_REUSEPORT` group) when the batched
/// backend can use them; otherwise one socket cloned per worker.
fn bind_worker_sockets(
    addr: SocketAddr,
    workers: usize,
    backend: UdpBackend,
) -> io::Result<(Vec<UdpSocket>, bool)> {
    #[cfg(target_os = "linux")]
    if backend == UdpBackend::Mmsg && workers > 1 {
        // Graceful fallback: any failure here (policy, odd kernels)
        // just means a shared socket below.
        if let Ok(group) = crate::mmsg::bind_reuseport_group(addr, workers) {
            return Ok((group, true));
        }
    }
    let _ = backend;
    let first = UdpSocket::bind(addr)?;
    let mut sockets = Vec::with_capacity(workers);
    for _ in 1..workers {
        sockets.push(first.try_clone()?);
    }
    sockets.insert(0, first);
    Ok((sockets, false))
}

/// Everything one worker thread owns, including its reusable scratch
/// buffers — nothing on the steady-state path allocates per iteration.
struct Worker {
    me: u32,
    workers: usize,
    shards: usize,
    io: UdpIo,
    counters: Arc<IoWorker>,
    rx_pool: FramePool,
    core: Arc<EngineCore>,
    /// Present iff the engine runs the epoll wait.
    #[cfg(target_os = "linux")]
    bells: Option<Bells>,
    /// Whether this worker reads the socket: every worker of a
    /// `SO_REUSEPORT` group (or a lone worker), worker 0 alone on a
    /// shared socket, so that a shared socket's datagrams are judged in
    /// the order they arrived.
    receives: bool,
    shutdown: Arc<AtomicBool>,
    /// Count of workers whose wait is installed; [`Engine::bind`]
    /// blocks (bounded) until it reaches `workers` so callers never
    /// race epoll setup with live traffic.
    ready: Arc<AtomicUsize>,
    start: Instant,
    sink: Option<Arc<DeliverySink>>,
    rng: StdRng,
    /// Receive burst scratch, reused across iterations.
    rx: Vec<RxDatagram>,
    /// The engine's output, reused by every call this worker makes:
    /// its lists, extraction arena and delivered payload buffers stay
    /// allocated across bursts. Empty between calls.
    out: EngineOutput,
}

/// A datagram served below the engine, by whichever worker receives
/// it.
enum Control<'a> {
    Stats,
    Ping(u64),
    Replica(&'a [u8]),
}

/// `bytes` as a control datagram, `None` for everything the engine
/// judges. Every control prefix starts with 0x00, which no ALPHA packet
/// does, so protocol traffic pays one byte compare.
fn control(bytes: &[u8]) -> Option<Control<'_>> {
    if bytes.first() != Some(&0) {
        return None;
    }
    if bytes.starts_with(STATS_MAGIC) {
        Some(Control::Stats)
    } else if let Some(nonce) = mesh::parse_ping(bytes) {
        Some(Control::Ping(nonce))
    } else {
        mesh::parse_replica(bytes).map(Control::Replica)
    }
}

impl Worker {
    /// The worker loop, the same on both rungs: wait, poll timers,
    /// receive and ingest (each engine call flushes its own output).
    /// Returns on shutdown.
    fn run(mut self) {
        let mut wait = Wait::install(&self);
        // Stats name the wait the workers actually run, worker by worker.
        self.core.metrics().io.record_worker_wait(wait.name());
        self.ready.fetch_add(1, Ordering::Release);
        loop {
            if self.shutdown.load(Ordering::Relaxed) {
                return;
            }
            let hint = self.core.worker_next_deadline(self.me);
            let woke = match wait.sleep(&self, hint) {
                Ok(woke) => woke,
                Err(_) => {
                    // Unexpected post-setup failure: pace the loop so
                    // a persistent error cannot spin a core.
                    self.counters
                        .read_timeout_errors
                        .fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(MIN_READ_TIMEOUT);
                    continue;
                }
            };
            // One wakeup per wait return, fruitful or not: the idle
            // rate of this counter is what the epoll wait collapses.
            self.counters.wakeups.fetch_add(1, Ordering::Relaxed);
            if self.shutdown.load(Ordering::Relaxed) {
                return;
            }
            self.poll_timers(self.now());
            if woke.timer {
                // Timers fired and were consumed; rescan to raise the
                // hint past them (fetch_min alone can never raise it).
                self.core.refresh_worker_deadline(self.me);
            }
            if woke.socket {
                // One receive per wake. Under epoll, level-triggered
                // readiness re-reports whatever the burst cap left
                // queued; under the blocking wait this receive *is*
                // the sleep, up to the read timeout `sleep` sized.
                if let Ok(n) = self.io.recv_batch(&self.rx_pool, &mut self.rx, MAX_BURST) {
                    if n > 0 {
                        let now = self.now();
                        self.ingest(now);
                    }
                }
            }
        }
    }

    fn now(&self) -> Timestamp {
        Timestamp::from_micros(self.start.elapsed().as_micros() as u64)
    }

    /// Feed received frames to the engine, [`MAX_BURST`] datagrams per
    /// call, and dispatch each call's output. The batch is a stack
    /// array: the `(addr, &bytes)` views borrow `frames`, so a heap
    /// batch could not be hoisted across iterations.
    ///
    /// Coalesced frames make `frames` many bursts deep (one receive can
    /// return 32 frames of 32 datagrams or more each), so between
    /// bursts the worker looks at its deadline hint and polls its
    /// timers when one has come due: lateness stays bounded by one
    /// burst, as when a receive was one burst.
    fn feed(&mut self, frames: &[RxDatagram], mut now: Timestamp) {
        const EMPTY: &[u8] = &[];
        let nowhere: SocketAddr = SocketAddr::from(([0, 0, 0, 0], 0));
        // `ingest` answered the control segments.
        let mut datagrams = frames
            .iter()
            .flat_map(|d| {
                d.segments()
                    .filter(|s| control(s).is_none())
                    .map(|s| (d.from, s))
            })
            .peekable();
        while datagrams.peek().is_some() {
            let mut batch: [(SocketAddr, &[u8]); MAX_BURST] = [(nowhere, EMPTY); MAX_BURST];
            let mut n = 0;
            while n < MAX_BURST {
                let Some(datagram) = datagrams.next() else {
                    break;
                };
                batch[n] = datagram;
                n += 1;
            }
            self.core
                .handle_datagrams_into(&batch[..n], now, &mut self.rng, &mut self.out);
            dispatch(&self.io, &mut self.out, self.sink.as_deref());
            if datagrams.peek().is_some() {
                now = self.now();
                let hint = self.core.worker_next_deadline(self.me);
                if hint.is_some_and(|due| due <= now) {
                    self.poll_timers(now);
                    self.core.refresh_worker_deadline(self.me);
                }
            }
        }
    }

    /// Advance the timers of every shard this worker polls.
    fn poll_timers(&mut self, now: Timestamp) {
        for s in 0..self.shards {
            if self.core.polls_shard(s, self.me, self.workers as u32) {
                self.core.poll_shard(s, now, &mut self.rng, &mut self.out);
            }
        }
        dispatch(&self.io, &mut self.out, self.sink.as_deref());
    }

    /// Answer a control datagram inline.
    fn serve_control(&mut self, ctl: Control<'_>, from: SocketAddr, now: Timestamp) {
        match ctl {
            Control::Stats => {
                let _ = self
                    .io
                    .socket()
                    .send_to(self.core.stats_json().as_bytes(), from);
            }
            // Mesh liveness probe: echoed inline like stats, so a
            // peer's health check measures this worker's real service
            // latency, not a side channel's.
            Control::Ping(nonce) => {
                let _ = self.io.socket().send_to(&mesh::encode_pong(nonce), from);
            }
            // Handshake replica from an upstream relay toward a
            // standby: learn the association, emit nothing.
            Control::Replica(inner) => self.core.absorb_replica(from, inner, now, &mut self.rng),
        }
    }

    /// Serve a received burst: answer its control segments inline,
    /// then feed the rest to the engine. The whole burst goes in one
    /// call, so its relay path can batch-verify and the responses leave
    /// in one gathered send; the frames go back to the pool after.
    fn ingest(&mut self, now: Timestamp) {
        let mut rx = std::mem::take(&mut self.rx);
        for d in &rx {
            for segment in d.segments() {
                if let Some(ctl) = control(segment) {
                    self.serve_control(ctl, d.from, now);
                }
            }
        }
        self.feed(&rx, now);
        rx.clear();
        self.rx = rx;
    }
}

/// What ended a [`Wait::sleep`]: whether the socket should be read and
/// whether the deadline timer may have fired.
struct Woke {
    socket: bool,
    timer: bool,
}

/// How a worker sleeps — the one thing the two runtime rungs do
/// differently. Everything else in [`Worker::run`] is shared.
enum Wait {
    /// Portable: the worker sleeps inside its receive syscall, behind
    /// an `SO_RCVTIMEO` window (`read_timeout`, as last set) sized from
    /// the deadline hint.
    Blocking { read_timeout: Duration },
    /// Linux: park in `epoll_wait` over the socket, the worker's control
    /// bell and a min-deadline `timerfd`.
    #[cfg(target_os = "linux")]
    Epoll {
        ep: crate::epoll::Epoll,
        timer: crate::epoll::TimerFd,
        bells: Bells,
        tokens: Vec<u64>,
        /// Deadline (µs) the timerfd is currently armed for;
        /// `u64::MAX` = disarmed. Re-arming only on change keeps
        /// `timerfd_settime` off the steady-state path.
        armed: u64,
    },
}

#[cfg(target_os = "linux")]
const TOKEN_SOCKET: u64 = 0;
#[cfg(target_os = "linux")]
const TOKEN_TIMER: u64 = 1;
#[cfg(target_os = "linux")]
const TOKEN_BELL: u64 = 2;

impl Wait {
    /// The epoll wait when the engine has control bells and this
    /// worker's epoll set and timerfd come up; the blocking wait
    /// otherwise.
    fn install(worker: &Worker) -> Wait {
        #[cfg(target_os = "linux")]
        if let Some(bells) = &worker.bells {
            CURRENT_WORKER.with(|c| c.set(Some(worker.me)));
            match Wait::epoll(worker, bells) {
                Ok(wait) => return wait,
                Err(e) => {
                    // This worker alone degrades to the blocking wait.
                    // Its bell is rung but never drained; an eventfd
                    // counter saturating is harmless.
                    eprintln!(
                        "alpha-transport: worker {} readiness setup failed ({e}); \
                         using blocking waits",
                        worker.me
                    );
                }
            }
        }
        // `bind` left the socket at this timeout, and a failed epoll
        // setup does not get as far as changing it.
        Wait::Blocking {
            read_timeout: RECV_TIMEOUT,
        }
    }

    /// The wait's name in stats: `UdpBackend::wait_name` of the rung
    /// that runs it.
    fn name(&self) -> &'static str {
        match self {
            Wait::Blocking { .. } => UdpBackend::Fallback.wait_name(),
            #[cfg(target_os = "linux")]
            Wait::Epoll { .. } => UdpBackend::Mmsg.wait_name(),
        }
    }

    #[cfg(target_os = "linux")]
    fn epoll(worker: &Worker, bells: &Bells) -> io::Result<Wait> {
        use std::os::fd::AsRawFd;

        use crate::epoll::{Epoll, TimerFd, MAX_EVENTS};

        let ep = Epoll::new()?;
        let timer = TimerFd::new()?;
        ep.add(timer.as_raw_fd(), TOKEN_TIMER, false)?;
        ep.add(bells[worker.me as usize].as_raw_fd(), TOKEN_BELL, false)?;
        if worker.receives {
            ep.add(worker.io.socket().as_raw_fd(), TOKEN_SOCKET, false)?;
            // Readiness decides when to receive, so the socket keeps a
            // token timeout only as a guard: if a spurious wake finds
            // the queue empty, the receive blocks one jiffy instead of
            // [`RECV_TIMEOUT`]. Sends stay blocking — under saturation
            // the kernel applies backpressure instead of dropping.
            worker
                .io
                .socket()
                .set_read_timeout(Some(Duration::from_micros(1)))?;
        }
        Ok(Wait::Epoll {
            ep,
            timer,
            bells: Arc::clone(bells),
            tokens: Vec::with_capacity(MAX_EVENTS),
            armed: u64::MAX,
        })
    }

    /// Arm the wait for `hint` (the worker's earliest deadline) and
    /// sleep. An `Err` is a failed `epoll_wait`; failures to arm are
    /// counted, not returned — the previous window (or the backstop)
    /// still bounds timer lateness.
    fn sleep(&mut self, worker: &Worker, hint: Option<Timestamp>) -> io::Result<Woke> {
        let arm_failed = || {
            worker
                .counters
                .read_timeout_errors
                .fetch_add(1, Ordering::Relaxed);
        };
        match self {
            Wait::Blocking { read_timeout } => {
                let window = hint
                    .map_or(RECV_TIMEOUT, |d| {
                        Duration::from_micros(d.since(worker.now()))
                    })
                    .clamp(MIN_READ_TIMEOUT, RECV_TIMEOUT);
                // Quantize to whole milliseconds so an unchanged
                // deadline horizon costs no setsockopt on the hot path.
                let window =
                    Duration::from_millis((window.as_micros() as u64).div_ceil(1000).max(1));
                if !worker.receives {
                    // Timers only: sleep the window, leave the socket
                    // (and its read timeout) to the worker that reads it.
                    std::thread::sleep(window);
                    return Ok(Woke {
                        socket: false,
                        timer: true,
                    });
                }
                if window != *read_timeout {
                    if worker.io.socket().set_read_timeout(Some(window)).is_err() {
                        arm_failed();
                    } else {
                        *read_timeout = window;
                    }
                }
                // The receive does the sleeping, and cannot tell a
                // timer expiry from a quiet socket: always read, always
                // rescan the deadline.
                Ok(Woke {
                    socket: true,
                    timer: true,
                })
            }
            #[cfg(target_os = "linux")]
            Wait::Epoll {
                ep,
                timer,
                bells,
                tokens,
                armed,
            } => {
                let hint = hint.map_or(u64::MAX, |t| t.micros());
                if hint != *armed {
                    let res = if hint == u64::MAX {
                        timer.disarm()
                    } else {
                        let now_us = worker.now().micros();
                        timer.arm_in(Duration::from_micros(hint.saturating_sub(now_us)))
                    };
                    if res.is_err() {
                        arm_failed();
                    }
                    *armed = hint;
                }
                tokens.clear();
                ep.wait(EPOLL_BACKSTOP_MS, tokens)?;
                worker.counters.wait_calls.fetch_add(1, Ordering::Relaxed);
                let mut woke = Woke {
                    socket: false,
                    timer: false,
                };
                for &t in tokens.iter() {
                    match t {
                        TOKEN_SOCKET => woke.socket = true,
                        TOKEN_TIMER => woke.timer = true,
                        // Quiet the bell: the loop re-reads the deadline
                        // hint and shutdown flag on every wake anyway.
                        _ => {
                            bells[worker.me as usize].drain();
                        }
                    }
                }
                if woke.timer {
                    timer.drain();
                    // Force a re-arm from the post-poll hint even if
                    // the deadline value happens to recur.
                    *armed = u64::MAX;
                }
                Ok(woke)
            }
        }
    }
}

/// Route an engine output burst to the wire in one gathered
/// `send_batch`, so replies leave before the worker goes back to its
/// wait, hand deliveries to the sink, then empty the output for the
/// worker's next call (its frames go back to the pool).
fn dispatch(io: &UdpIo, out: &mut EngineOutput, sink: Option<&DeliverySink>) {
    let _ = io.send_batch(&out.datagrams);
    if let Some(sink) = sink {
        if !out.delivered.is_empty() || !out.extracted.is_empty() || !out.completed.is_empty() {
            sink(out);
        }
    }
    out.clear();
}

/// Query a running engine's stats over UDP (the `engine stats` CLI).
pub fn query_stats(addr: SocketAddr, timeout: Duration) -> io::Result<String> {
    let socket = UdpSocket::bind(match addr {
        SocketAddr::V4(_) => "0.0.0.0:0",
        SocketAddr::V6(_) => "[::]:0",
    })?;
    socket.set_read_timeout(Some(timeout))?;
    socket.send_to(STATS_MAGIC, addr)?;
    let mut buf = vec![0u8; MAX_DATAGRAM];
    let (n, _) = socket.recv_from(&mut buf)?;
    Ok(String::from_utf8_lossy(&buf[..n]).into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpha_core::{Config, Mode};
    use alpha_crypto::Algorithm;
    use alpha_engine::EngineConfig;

    fn engine_cfg() -> EngineConfig {
        EngineConfig::new(Config::new(Algorithm::Sha1).with_chain_len(64))
    }

    /// A single-flow client driven by its own `EngineCore` over a raw
    /// socket: handshake, send one message, wait for the exchange to
    /// finish.
    fn run_client(server_addr: SocketAddr, assoc_id: u64, payload: &[u8]) {
        let core = EngineCore::new(engine_cfg());
        let socket = UdpSocket::bind("127.0.0.1:0").expect("client bind");
        socket
            .set_read_timeout(Some(Duration::from_millis(5)))
            .unwrap();
        let start = Instant::now();
        let mut rng = StdRng::seed_from_u64(assoc_id);
        let now = |s: Instant| Timestamp::from_micros(s.elapsed().as_micros() as u64);

        let (key, out) = core.connect(server_addr, assoc_id, now(start), &mut rng);
        for (dst, bytes) in &out.datagrams {
            socket.send_to(bytes, *dst).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut buf = vec![0u8; MAX_DATAGRAM];
        let mut connected = false;
        let mut sent = false;
        while Instant::now() < deadline {
            let mut out = core.poll(now(start), &mut rng);
            if let Ok((n, from)) = socket.recv_from(&mut buf) {
                out.absorb(core.handle_datagram(from, &buf[..n], now(start), &mut rng));
            }
            for (dst, bytes) in &out.datagrams {
                socket.send_to(bytes, *dst).unwrap();
            }
            connected |= out.completed.contains(&key);
            if connected && !sent {
                let out = core
                    .sign_batch(key, &[payload], Mode::Base, now(start))
                    .expect("sign");
                for (dst, bytes) in &out.datagrams {
                    socket.send_to(bytes, *dst).unwrap();
                }
                sent = true;
            }
            if sent && core.flow_is_idle(key) {
                return;
            }
        }
        panic!("client {assoc_id} did not finish its exchange in time");
    }

    #[test]
    fn serve_multiple_clients_and_answer_stats() {
        let server = Engine::bind("127.0.0.1:0", EngineCore::new(engine_cfg()), 2).expect("bind");
        let server_addr = server.local_addr().unwrap();

        let mut handles = Vec::new();
        for i in 0..4u64 {
            handles.push(std::thread::spawn(move || {
                run_client(server_addr, 100 + i, format!("client {i}").as_bytes());
            }));
        }
        for h in handles {
            h.join().expect("client");
        }
        // A client is done once its own signer goes idle, which can be a
        // moment before the server worker has processed the final S2 —
        // poll the live stats endpoint until the counters converge.
        let deadline = Instant::now() + Duration::from_secs(10);
        let v = loop {
            let stats = query_stats(server_addr, Duration::from_secs(5)).expect("stats");
            let v: serde::Value = serde_json::from_str(&stats).expect("stats json");
            let verified = v
                .get("metrics")
                .and_then(|m| m.get("s2_verified"))
                .and_then(serde::Value::as_u64);
            if verified == Some(4) || Instant::now() >= deadline {
                break v;
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        let m = v.get("metrics").unwrap();
        assert_eq!(m.get("handshakes").unwrap().as_u64(), Some(4));
        assert_eq!(m.get("s2_verified").unwrap().as_u64(), Some(4));
        assert_eq!(v.get("flows").unwrap().as_u64(), Some(4));
        // The front end stamped its backends and every worker's I/O
        // counters into the same snapshot.
        let backend = v.get("udp_backend").and_then(serde::Value::as_str);
        assert_eq!(backend, Some(crate::io::active().name()));
        let wait = v.get("wait_backend").and_then(serde::Value::as_str);
        assert_eq!(wait, Some(crate::io::active().wait_name()));
        let io = m.get("io").expect("io metrics");
        assert!(
            io.get("datagrams_in")
                .and_then(serde::Value::as_u64)
                .unwrap_or(0)
                > 0,
            "workers counted received datagrams"
        );
        assert!(
            io.get("wakeups")
                .and_then(serde::Value::as_u64)
                .unwrap_or(0)
                > 0,
            "workers counted their wait returns"
        );
        server.shutdown();
    }

    #[test]
    fn answers_mesh_probes_and_absorbs_replicas() {
        let server = Engine::bind("127.0.0.1:0", EngineCore::new(engine_cfg()), 1).expect("bind");
        let addr = server.local_addr().unwrap();
        let sock = UdpSocket::bind("127.0.0.1:0").expect("probe socket");
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // Probe round-trip: the worker echoes the nonce inline.
        sock.send_to(&mesh::encode_ping(0xDEAD_BEEF), addr).unwrap();
        let mut buf = [0u8; 64];
        let (n, from) = sock.recv_from(&mut buf).expect("pong");
        assert_eq!(from, addr);
        assert_eq!(mesh::parse_pong(&buf[..n]), Some(0xDEAD_BEEF));
        // A replica datagram is absorbed silently (learn-only).
        sock.send_to(&mesh::encode_replica(b"not a handshake"), addr)
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while server
            .core()
            .metrics()
            .mesh
            .replicas_absorbed
            .load(Ordering::Relaxed)
            == 0
        {
            assert!(Instant::now() < deadline, "replica never absorbed");
            std::thread::sleep(Duration::from_millis(5));
        }
        sock.set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        assert!(
            sock.recv_from(&mut buf).is_err(),
            "replicas must not generate a response"
        );
        server.shutdown();
    }

    /// Segment offload can put a control datagram and protocol traffic
    /// in one received frame; each must still go where it belongs.
    #[test]
    #[cfg(target_os = "linux")]
    fn a_ping_and_a_datagram_in_one_coalesced_message_are_both_served() {
        let server = Engine::bind("127.0.0.1:0", EngineCore::new(engine_cfg()), 1).expect("bind");
        let addr = server.local_addr().unwrap();
        let sock = UdpSocket::bind("127.0.0.1:0").expect("client socket");
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let ping = mesh::encode_ping(7);
        // Not control (no 0x00 prefix) and not ALPHA either: the engine
        // judges it, and the verdict is a parse error.
        let datagram = vec![0xA5; ping.len()];
        let msgs = [(addr, ping.into()), (addr, datagram.into())];
        let sent = crate::mmsg::send_batch(&sock, &msgs, true).expect("coalesced send");
        assert_eq!((sent.datagrams, sent.gso_sends), (2, 1));

        let mut buf = [0u8; 64];
        let (n, _) = sock.recv_from(&mut buf).expect("pong");
        assert_eq!(mesh::parse_pong(&buf[..n]), Some(7));
        let m = server.core().metrics();
        let deadline = Instant::now() + Duration::from_secs(5);
        while m.parse_errors.load(Ordering::Relaxed) == 0 {
            assert!(Instant::now() < deadline, "the datagram was never judged");
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(
            m.packets_in.load(Ordering::Relaxed),
            1,
            "the engine sees the datagram and not the ping"
        );
        let io = m.io.totals();
        assert_eq!(io.datagrams_in, 2);
        // On the mmsg rung the two arrived as one frame; on the portable
        // rung the kernel split them again.
        let coalesced = u64::from(crate::io::active() == UdpBackend::Mmsg);
        assert_eq!((io.gro_recvs, io.gro_segments), (coalesced, 2 * coalesced));
        server.shutdown();
    }

    /// One receive can hand a worker `MAX_BATCH` coalesced frames of
    /// `MAX_BURST` datagrams each; a timer that is due must fire between
    /// two bursts of that backlog, not after it.
    #[test]
    fn a_due_timer_fires_within_one_burst_of_a_deep_backlog() {
        use alpha_wire::PacketView;

        const TIMER_ASSOC: u64 = 999;
        let frames = crate::io::MAX_BATCH;
        let sink = UdpSocket::bind("127.0.0.1:0").expect("sink");
        sink.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let sink_addr = sink.local_addr().unwrap();
        let source: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let mut rng = StdRng::seed_from_u64(1);

        // A relay for `source` -> `sink` that also has a handshake of
        // its own toward `sink` outstanding: its resend is the timer.
        let core = Arc::new(EngineCore::new(engine_cfg()));
        core.add_route(source, sink_addr);
        core.install_worker_hints(1, None);
        drop(core.connect(sink_addr, TIMER_ASSOC, Timestamp::ZERO, &mut rng));

        // The backlog: per frame one HS1 the relay forwards (so the sink
        // sees where each burst ends) and 31 datagrams it rejects.
        let client = EngineCore::new(engine_cfg());
        let backlog: Vec<RxDatagram> = (0..frames as u64)
            .map(|assoc| {
                let (_, out) = client.connect(sink_addr, assoc, Timestamp::ZERO, &mut rng);
                let mut bytes = out.datagrams[0].1.to_vec();
                let segment_len = bytes.len();
                bytes.resize(segment_len * MAX_BURST, 0xA5);
                RxDatagram {
                    from: source,
                    frame: bytes.into(),
                    truncated: false,
                    segment_len,
                }
            })
            .collect();

        let counters = core.metrics().io.register_worker();
        let socket = UdpSocket::bind("127.0.0.1:0").expect("worker socket");
        let mut worker = Worker {
            me: 0,
            workers: 1,
            shards: core.shard_count(),
            io: UdpIo::new(socket, Arc::clone(&counters)),
            counters,
            rx_pool: FramePool::new(MAX_DATAGRAM, 1),
            core: Arc::clone(&core),
            #[cfg(target_os = "linux")]
            bells: None,
            receives: true,
            shutdown: Arc::new(AtomicBool::new(false)),
            ready: Arc::new(AtomicUsize::new(0)),
            // Backdated: the resend (due within 100 ms of time zero)
            // is overdue when the backlog arrives.
            start: Instant::now()
                .checked_sub(Duration::from_secs(2))
                .expect("host up for two seconds"),
            sink: None,
            rng,
            rx: backlog,
            out: EngineOutput::default(),
        };
        let now = worker.now();
        worker.ingest(now);

        let m = core.metrics();
        assert_eq!(
            m.packets_in.load(Ordering::Relaxed),
            (frames * MAX_BURST) as u64
        );
        assert_eq!(m.timer_fires.load(Ordering::Relaxed), 1);
        // What reached the sink, in order: a forward per burst, and the
        // resend right after the first burst.
        let mut buf = [0u8; 2048];
        let arrivals: Vec<u64> = (0..=frames)
            .map(|_| {
                let (n, _) = sink.recv_from(&mut buf).expect("forward or resend");
                PacketView::parse(&buf[..n]).expect("a handshake").assoc_id
            })
            .collect();
        let mut want: Vec<u64> = (0..frames as u64).collect();
        want.insert(1, TIMER_ASSOC);
        assert_eq!(arrivals, want);
    }

    /// A timer armed off the worker threads (`connect` on the caller's
    /// thread) must reach a worker asleep in its wait: under epoll the
    /// engine's deadline waker rings the worker's control bell, which
    /// would otherwise sleep out its backstop.
    #[test]
    fn a_timer_armed_on_another_thread_wakes_the_sleeping_worker() {
        use alpha_wire::PacketView;

        let server = Engine::bind("127.0.0.1:0", EngineCore::new(engine_cfg()), 1).expect("bind");
        let addr = server.local_addr().unwrap();
        let peer = UdpSocket::bind("127.0.0.1:0").expect("peer");
        peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // Past the first handshake resend delay, so a handshake begun at
        // time zero is due the moment it is armed.
        while server.now().micros() < 300_000 {
            std::thread::sleep(Duration::from_millis(10));
        }
        // A stats answer puts the worker's last wake, and so the start of
        // its next backstop, just behind us; then it goes back to sleep.
        query_stats(addr, Duration::from_secs(5)).expect("stats");
        std::thread::sleep(Duration::from_millis(20));

        let armed = Instant::now();
        let mut rng = StdRng::seed_from_u64(5);
        let peer_addr = peer.local_addr().unwrap();
        drop(
            server
                .core()
                .connect(peer_addr, 7, Timestamp::ZERO, &mut rng),
        );
        let mut buf = [0u8; 2048];
        let (n, from) = peer.recv_from(&mut buf).expect("the handshake resend");
        let waited = armed.elapsed();
        assert_eq!(from, addr);
        let view = PacketView::parse(&buf[..n]).expect("a handshake");
        assert_eq!(view.assoc_id, 7);
        // The epoll backstop is 250 ms and the blocking wait's window
        // 5 ms; a rung bell answers in microseconds.
        assert!(
            waited < Duration::from_millis(100),
            "the resend left {waited:?} after its timer was armed"
        );
        server.shutdown();
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn reuseport_group_binds_and_serves() {
        // Force per-worker sockets regardless of the session backend.
        let group = crate::mmsg::bind_reuseport_group("127.0.0.1:0".parse().unwrap(), 4)
            .expect("reuseport group");
        let addr = group[0].local_addr().unwrap();
        for s in &group {
            assert_eq!(s.local_addr().unwrap(), addr, "one address, many sockets");
        }
        drop(group);
        // And the engine front end picks them up when the backend is mmsg.
        if crate::io::active() == UdpBackend::Mmsg {
            let engine =
                Engine::bind("127.0.0.1:0", EngineCore::new(engine_cfg()), 4).expect("bind");
            assert!(engine.per_worker_sockets());
            engine.shutdown();
        }
    }
}
