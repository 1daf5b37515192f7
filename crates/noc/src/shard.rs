//! Spatial sharding of the cycle kernel (DESIGN.md §10).
//!
//! A [`Shard`] owns a contiguous range of routers and the NIs attached to
//! them: their input buffers, its own slice of the event ring, and the slab
//! of packets *sourced* by its nodes. [`NocSim::step`](crate::NocSim::step)
//! drives shards through a deterministic two-phase barrier:
//!
//! * **Phase A** (parallel): each shard drains its own ring slot into local
//!   router buffers and runs VC + switch allocation over its routers,
//!   reading only last-cycle-edge state and writing only shard-local state.
//!   It resolves every grant through the shared [`Wiring`] and posts the
//!   flit's arrival and the freed slot's credit into its outbox for the
//!   shard that owns each landing site ([`Mail`]). Ejections and trace
//!   lookups that would touch another shard's slab are deferred into
//!   per-shard output queues.
//! * **Cycle edge** (serial, "decide"): the simulator walks shards in index
//!   order, processing deferred ejections and drawing the fault and loss
//!   RNGs per grant: bit flips, erasures and how many copies of each credit
//!   to return. Because shards own contiguous ascending router ranges and
//!   phase A emits grants in local router-ascending order, the
//!   shard-concatenated grant sequence is globally router-ascending:
//!   exactly the order the single-shard kernel produces, so the sequential
//!   draws are shard-count-independent. It then moves every outbox into
//!   its target shard's inbox (the `Vec`s move, no entry is copied); the
//!   step epilogue sends each drained mail back to its sender.
//! * **Phase B2** (parallel, "apply"): each shard first applies its inbox in
//!   source-shard order — arrivals into its own ring two cycles out, which
//!   is the global grant order restricted to this shard, and credit
//!   returns, which are commutative increments — then injects at most one
//!   flit per local NI into its *own* ring (a node's router is always in
//!   its own shard), tallying injection statistics into order-independent
//!   integer counters merged serially afterwards.
//!
//! The only per-site randomness inside phase A is the port-stall fault
//! draw; it uses a stateless oracle keyed on `(plan seed, cycle, router,
//! port)` instead of the shared sequential fault RNG, so its outcomes do not
//! depend on arrival processing order (the same thread-count-independence
//! discipline `FaultPlan` follows elsewhere).

use anoc_core::data::NodeId;
use anoc_core::rng::Pcg32;

use crate::config::NocConfig;
use crate::faults::{FaultPlan, PPM};
use crate::ni::NiState;
use crate::packet::{Flit, PacketId, PacketKind, PacketState};
use crate::router::{LinkDest, Router, Traversal};
use crate::topology::{Direction, Mesh};

/// Ring-buffer horizon for scheduled arrivals (link events land at +1/+2).
pub(crate) const EVENT_HORIZON: usize = 4;

/// Low bits of a flit slot addressing the packet within its owning shard's
/// slab; the remaining high bits carry the shard index.
pub(crate) const SLOT_BITS: u32 = 24;
pub(crate) const SLOT_MASK: u32 = (1 << SLOT_BITS) - 1;
/// Maximum shard count representable in the slot encoding.
pub(crate) const MAX_SHARDS: usize = 1 << (32 - SLOT_BITS);

/// The shard owning a slot.
pub(crate) fn shard_of_slot(slot: u32) -> usize {
    (slot >> SLOT_BITS) as usize
}

/// The slab index of a slot within its owning shard.
pub(crate) fn local_of_slot(slot: u32) -> usize {
    (slot & SLOT_MASK) as usize
}

/// Encodes a shard index and local slab index into a flit slot.
pub(crate) fn encode_slot(shard: usize, local: usize) -> u32 {
    debug_assert!(shard < MAX_SHARDS && local <= SLOT_MASK as usize);
    ((shard as u32) << SLOT_BITS) | local as u32
}

/// The `port` of an [`Arrival`] bound for an ejection path.
pub(crate) const EJECT: u8 = u8::MAX;

/// A flit in flight on a link, due at a scheduled cycle.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Arrival {
    pub flit: Flit,
    /// The downstream router, or the ejecting node when `port` is [`EJECT`].
    pub at: u32,
    /// Input port at the downstream router, or [`EJECT`].
    pub port: u8,
    /// Downstream VC.
    pub vc: u8,
}

impl Arrival {
    /// An arrival of `flit` on `vc` at `target`.
    pub fn new(target: LinkDest, vc: usize, flit: Flit) -> Self {
        let (at, port) = match target {
            LinkDest::Router { router, port } => (router as u32, port as u8),
            LinkDest::Eject { node } => (node as u32, EJECT),
        };
        Arrival {
            flit,
            at,
            port,
            vc: vc as u8,
        }
    }

    /// Where the flit lands.
    pub fn target(&self) -> LinkDest {
        if self.port == EJECT {
            LinkDest::Eject {
                node: self.at as usize,
            }
        } else {
            LinkDest::Router {
                router: self.at as usize,
                port: self.port as usize,
            }
        }
    }
}

/// Who is owed the credit a flit frees when it leaves an input link.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CreditSink {
    /// Output port `port` of local router `router` in shard `shard`.
    Router { shard: u32, router: u32, port: u8 },
    /// The NI of local node `node` in shard `shard`.
    Ni { shard: u32, node: u32 },
}

impl CreditSink {
    /// The shard owning the credited router or NI.
    pub fn shard(self) -> usize {
        match self {
            CreditSink::Router { shard, .. } | CreditSink::Ni { shard, .. } => shard as usize,
        }
    }
}

/// A freed input-VC slot owed to its upstream hop.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Credit {
    pub sink: CreditSink,
    pub vc: u8,
    /// How many credits to return: 1, or 0 / 2 when the serial edge's
    /// fault draw dropped / duplicated it.
    pub copies: u8,
}

/// The link traffic one shard's phase A sends one target shard, each list
/// in the sender's grant order.
#[derive(Debug, Default)]
pub(crate) struct Mail {
    pub arrivals: Vec<Arrival>,
    pub credits: Vec<Credit>,
}

impl Mail {
    fn is_empty(&self) -> bool {
        self.arrivals.is_empty() && self.credits.is_empty()
    }
}

/// The network's links resolved against a shard partition, indexed by the
/// global link numbers a [`Traversal`] carries (`router * ports + port`):
/// phase A turns a grant into its arrival and its credit return with one
/// indexed load each. Immutable once built and shared by every shard.
#[derive(Debug, Default)]
pub(crate) struct Wiring {
    /// Per output link: the owning shard of the landing site and the
    /// arrival template (flit and VC filled in per traversal).
    pub hops: Vec<(u32, Arrival)>,
    /// Per input link: who its departing flits credit (nobody for an
    /// unwired mesh-edge port, which never receives a flit).
    pub credits: Vec<Option<CreditSink>>,
}

impl Wiring {
    /// Resolves every link of `mesh` against the partition `shards`, whose
    /// owner map is `router_shard`.
    pub fn new(mesh: &Mesh, shards: &[Shard], router_shard: &[u32]) -> Self {
        let ports = mesh.ports_per_router();
        // Mesh-edge ports without a neighbour keep this entry: XY routing
        // never sends a flit out of them.
        let unwired = (
            0,
            Arrival::new(LinkDest::Eject { node: usize::MAX }, 0, Flit::EMPTY),
        );
        let mut hops = vec![unwired; mesh.num_routers() * ports];
        let mut credits = vec![None; mesh.num_routers() * ports];
        for r in 0..mesh.num_routers() {
            let owner = router_shard[r];
            for dir in Direction::ALL {
                let Some(n) = mesh.neighbor(r, dir) else {
                    continue;
                };
                // The link r→n lands on n's opposite port, and r's own `dir`
                // input port is fed by n's opposite output port.
                let back = dir.opposite() as usize;
                let n_shard = router_shard[n];
                hops[r * ports + dir as usize] = (
                    n_shard,
                    Arrival::new(
                        LinkDest::Router {
                            router: n,
                            port: back,
                        },
                        0,
                        Flit::EMPTY,
                    ),
                );
                credits[r * ports + dir as usize] = Some(CreditSink::Router {
                    shard: n_shard,
                    router: (n - shards[n_shard as usize].router_lo) as u32,
                    port: back as u8,
                });
            }
            for port in 4..ports {
                let node = mesh.node_at(r, port).index();
                hops[r * ports + port] = (
                    owner,
                    Arrival::new(LinkDest::Eject { node }, 0, Flit::EMPTY),
                );
                credits[r * ports + port] = Some(CreditSink::Ni {
                    shard: owner,
                    node: (node - shards[owner as usize].node_lo) as u32,
                });
            }
        }
        Wiring { hops, credits }
    }
}

/// The phase a worker runs on a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Ring drain + VC/switch allocation.
    A,
    /// NI injection.
    B2,
}

/// Per-cycle context broadcast to every shard; immutable during a phase.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StepCtx {
    pub now: u64,
    pub faults: FaultPlan,
    pub tracing: bool,
}

/// Injection statistics tallied shard-locally during phase B2. All plain
/// integer sums, so the serial merge order cannot affect the totals.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct InjectTally {
    pub flits: u64,
    pub data_flits: u64,
    pub control_flits: u64,
    pub baseline_flits: u64,
}

/// One spatial partition of the network: a contiguous router range, the NIs
/// attached to it, and the packets its nodes source.
#[derive(Debug)]
pub(crate) struct Shard {
    /// This shard's index (the high bits of every slot it owns).
    pub index: usize,
    /// First global router id owned by this shard.
    pub router_lo: usize,
    /// First global node id owned by this shard.
    pub node_lo: usize,
    /// Private copy of the (tiny, immutable) mesh geometry, so phase A
    /// shares nothing across threads.
    pub mesh: Mesh,
    pub routers: Vec<Router>,
    pub nis: Vec<NiState>,
    /// Local routers that may hold buffered flits; idle routers are skipped.
    pub active: Vec<bool>,
    /// This shard's slice of the event ring: arrivals targeting its routers
    /// and ejection paths.
    pub events: Vec<Vec<Arrival>>,
    /// Slab store for packets sourced by this shard's nodes; flits carry
    /// `encode_slot(index, slab_index)`.
    pub packets: Vec<Option<PacketState>>,
    pub free_slots: Vec<u32>,
    /// Packets waiting in this shard's NI queues (fast idle check for B2).
    pub queued: usize,
    /// Phase A output: granted traversals in local router-ascending order,
    /// read by the serial edge's fault and loss draws.
    pub outgoing: Vec<Traversal>,
    /// Phase A output: the arrivals and credits for each shard, by target
    /// shard index.
    pub outbox: Vec<Mail>,
    /// Phase B2 input: what each shard's phase A sent this one, by source
    /// shard index. Between cycles every mail is back in its sender's
    /// outbox, and these are empty placeholders.
    pub inbox: Vec<Mail>,
    /// Phase A output: ejection arrivals deferred to the serial cycle edge,
    /// in ring order (which is traversal push order, i.e. router-ascending).
    pub ejects: Vec<(usize, Flit)>,
    /// Phase A output: deferred head-flit `RouterArrival` traces, resolved
    /// serially because the packet may live in another shard's slab.
    pub arrival_traces: Vec<(u32, usize)>,
    /// Phase B2 output: packets whose head flit injected this cycle.
    pub injected_traces: Vec<PacketId>,
    /// Phase B2 output: injection statistics.
    pub inject_tally: InjectTally,
    /// Phase A output: injected port stalls this cycle.
    pub stall_hits: u64,
    /// Whether any arrival or injection happened this cycle (watchdog).
    pub progressed: bool,
}

impl Default for Shard {
    /// A placeholder used only while a shard is checked out to a worker
    /// (`std::mem::take`); never stepped.
    fn default() -> Self {
        Shard {
            index: 0,
            router_lo: 0,
            node_lo: 0,
            mesh: Mesh::new(&NocConfig::cmesh(1, 1, 1)),
            routers: Vec::new(),
            nis: Vec::new(),
            active: Vec::new(),
            events: Vec::new(),
            packets: Vec::new(),
            free_slots: Vec::new(),
            queued: 0,
            outgoing: Vec::new(),
            outbox: Vec::new(),
            inbox: Vec::new(),
            ejects: Vec::new(),
            arrival_traces: Vec::new(),
            injected_traces: Vec::new(),
            inject_tally: InjectTally::default(),
            stall_hits: 0,
            progressed: false,
        }
    }
}

/// Stateless per-site port-stall draw, keyed on the plan seed and the
/// arrival's unique `(cycle, router, port)` site — at most one flit arrives
/// per input port per cycle, so each site is drawn exactly once, in any
/// order, on any shard count.
pub(crate) fn port_stall(plan: &FaultPlan, now: u64, router: usize, port: usize) -> bool {
    if plan.port_stall_ppm == 0 {
        return false;
    }
    let site = mix64(plan.seed ^ now ^ ((router as u64) << 40) ^ ((port as u64) << 56));
    // anoc-lint: rng-site: stateless per-(cycle,router,port) draw; same result on any shard count
    Pcg32::seed_from_u64(site).below(PPM) < plan.port_stall_ppm
}

/// SplitMix64 finalizer: decorrelates nearby `(cycle, router, port)` sites.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A partition of the network: the shards, the owning shard of every
/// router, and every link resolved against them.
pub(crate) struct Partition {
    pub shards: Vec<Shard>,
    pub router_shard: Vec<u32>,
    pub wiring: Wiring,
}

/// Splits `num_routers` into `shards` contiguous ascending ranges and
/// builds each shard's routers, NIs and ring, and the wiring between them.
/// Shard `i` owns routers `[i*R/n, (i+1)*R/n)`.
pub(crate) fn partition(config: &NocConfig, shards: usize) -> Partition {
    let mesh = Mesh::new(config);
    let num_routers = mesh.num_routers();
    let n = shards.clamp(1, num_routers.min(MAX_SHARDS));
    let shards: Vec<Shard> = (0..n)
        .map(|i| {
            let lo = i * num_routers / n;
            let hi = (i + 1) * num_routers / n;
            Shard::build(config, &mesh, i, n, lo, hi)
        })
        .collect();
    let mut router_shard = vec![0u32; num_routers];
    for s in &shards {
        router_shard[s.router_lo..s.router_lo + s.routers.len()].fill(s.index as u32);
    }
    let wiring = Wiring::new(&mesh, &shards, &router_shard);
    Partition {
        shards,
        router_shard,
        wiring,
    }
}

impl Shard {
    /// Builds shard `index` of `shards`, owning routers `[router_lo,
    /// router_hi)`. Routers learn only which output ports eject; where each
    /// link lands is resolved in phase A through [`Wiring`].
    fn build(
        config: &NocConfig,
        mesh: &Mesh,
        index: usize,
        shards: usize,
        router_lo: usize,
        router_hi: usize,
    ) -> Shard {
        let ports = mesh.ports_per_router();
        // Output ports start out ejecting; wiring a link to a neighbour
        // makes a port credit flow-controlled.
        let routers: Vec<Router> = (router_lo..router_hi)
            .map(|id| {
                let mut router = Router::new(id, ports, config.vcs, config.vc_buffer);
                for dir in Direction::ALL {
                    if let Some(n) = mesh.neighbor(id, dir) {
                        let port = dir.opposite() as usize;
                        router.wire_output(dir as usize, LinkDest::Router { router: n, port });
                    }
                }
                router
            })
            .collect();
        let node_lo = router_lo * mesh.concentration();
        let node_hi = router_hi * mesh.concentration();
        let num_routers = routers.len();
        Shard {
            index,
            router_lo,
            node_lo,
            mesh: mesh.clone(),
            routers,
            nis: (node_lo..node_hi)
                .map(|_| NiState::new(config.vcs, config.vc_buffer))
                .collect(),
            active: vec![false; num_routers],
            events: (0..EVENT_HORIZON).map(|_| Vec::new()).collect(),
            packets: Vec::new(),
            free_slots: Vec::new(),
            queued: 0,
            outgoing: Vec::new(),
            outbox: (0..shards).map(|_| Mail::default()).collect(),
            inbox: (0..shards).map(|_| Mail::default()).collect(),
            ejects: Vec::new(),
            arrival_traces: Vec::new(),
            injected_traces: Vec::new(),
            inject_tally: InjectTally::default(),
            stall_hits: 0,
            progressed: false,
        }
    }

    fn ring_index(now: u64) -> usize {
        (now % EVENT_HORIZON as u64) as usize
    }

    /// Whether running `phase` on this shard this cycle could do anything.
    /// Skipping a workless shard is exact: its phase would produce no
    /// outputs and leave every field as the cycle edge reset it.
    pub fn has_work(&self, now: u64, phase: Phase) -> bool {
        match phase {
            Phase::A => {
                !self.events[Self::ring_index(now)].is_empty() || self.active.iter().any(|&a| a)
            }
            Phase::B2 => self.queued > 0 || self.inbox.iter().any(|m| !m.is_empty()),
        }
    }

    /// Runs one phase; phase A resolves its grants through `wiring`.
    pub fn run(&mut self, ctx: &StepCtx, phase: Phase, wiring: &Wiring) {
        match phase {
            Phase::A => self.phase_a(ctx, wiring),
            Phase::B2 => self.phase_b2(ctx),
        }
    }

    /// Phase A: drain this cycle's ring slot into local input buffers
    /// (deferring ejections and cross-slab trace lookups), run VC + switch
    /// allocation over the shard's active routers, and post each grant's
    /// arrival and credit to the outbox of the shard owning its landing
    /// site. Reads only last-cycle-edge state; writes only shard-local
    /// state.
    // anoc-lint: phase(A)
    fn phase_a(&mut self, ctx: &StepCtx, wiring: &Wiring) {
        let ring = Self::ring_index(ctx.now);
        // The due slot is swapped out and restored so its capacity is
        // reused; safe because schedules only ever target future slots.
        let mut due = std::mem::take(&mut self.events[ring]);
        for arrival in due.drain(..) {
            self.progressed = true;
            if arrival.port == EJECT {
                self.ejects.push((arrival.at as usize, arrival.flit));
                continue;
            }
            let (router, port) = (arrival.at as usize, arrival.port as usize);
            let mut flit = arrival.flit;
            flit.ready_at = ctx.now + 1;
            if port_stall(&ctx.faults, ctx.now, router, port) {
                flit.ready_at += ctx.faults.stall_cycles as u64;
                self.stall_hits += 1;
            }
            if ctx.tracing && flit.is_head() {
                self.arrival_traces.push((flit.slot, router));
            }
            let lr = router - self.router_lo;
            self.routers[lr].accept_flit(port, arrival.vc as usize, flit);
            self.active[lr] = true;
        }
        self.events[ring] = due;
        for lr in 0..self.routers.len() {
            if !self.active[lr] {
                continue;
            }
            let mesh = &self.mesh;
            let rid = self.routers[lr].id();
            self.routers[lr].allocate(
                ctx.now,
                |flit| mesh.route_xy(rid, flit.dest),
                &mut self.outgoing,
            );
            if self.routers[lr].is_idle() {
                self.active[lr] = false;
            }
        }
        self.progressed |= !self.outgoing.is_empty();
        for t in &self.outgoing {
            let (target, mut arrival) = wiring.hops[t.link as usize];
            arrival.flit = t.flit;
            arrival.vc = t.out_vc;
            self.outbox[target as usize].arrivals.push(arrival);
            // An unwired mesh-edge port never carries a flit, so it owes
            // nobody a credit.
            if let Some(sink) = wiring.credits[t.from as usize] {
                self.outbox[sink.shard()].credits.push(Credit {
                    sink,
                    vc: t.in_vc,
                    copies: 1,
                });
            }
        }
    }

    /// Phase B2: apply this cycle's inbox, then at most one flit injection
    /// per local NI, into this shard's own ring (a node's router lives in
    /// the node's shard by construction).
    fn phase_b2(&mut self, ctx: &StepCtx) {
        self.apply_inbox(ctx.now);
        if self.queued == 0 {
            return;
        }
        for node in 0..self.nis.len() {
            if self.inject_from(node, ctx) {
                self.progressed = true;
            }
        }
    }

    /// Attempts one flit injection from local node index `local_node`;
    /// returns whether a flit entered the network.
    fn inject_from(&mut self, local_node: usize, ctx: &StepCtx) -> bool {
        let now = ctx.now;
        let ni = &mut self.nis[local_node];
        let Some(&slot) = ni.queue.front() else {
            return false;
        };
        // The NI queue only holds live local slab slots; drop a stale one
        // rather than crash if that invariant ever breaks.
        let Some(p) = self.packets[local_of_slot(slot)].as_mut() else {
            debug_assert!(false, "queued slot {slot} holds no packet");
            ni.queue.pop_front();
            self.queued -= 1;
            return false;
        };
        // Unhidden compression: pay the remaining latency now that the
        // packet has reached the queue head.
        if ni.next_seq == 0 && p.head_gate > 0 {
            p.ready_at = p.ready_at.max(now + p.head_gate);
            p.head_gate = 0;
            return false;
        }
        if p.ready_at > now {
            return false;
        }
        // Head flit needs a VC with a credit; body flits continue on the
        // packet's VC and just need a credit.
        let vc = match ni.cur_vc {
            Some(v) => {
                if ni.vc_credits[v] == 0 {
                    return false;
                }
                v
            }
            None => match ni.pick_vc() {
                Some(v) => v,
                None => return false,
            },
        };
        let seq = ni.next_seq;
        if seq == 0 {
            p.inject_start = Some(now);
        }
        let is_tail = seq + 1 == p.num_flits;
        let flit = Flit {
            slot,
            seq,
            is_tail,
            dest: p.dest,
            ready_at: 0, // set at arrival
        };
        let pid = p.id;
        let measured = p.measured;
        let kind = p.kind;
        let num_flits = p.num_flits;
        let baseline_flits = p.baseline_flits;
        ni.vc_credits[vc] -= 1;
        ni.cur_vc = Some(vc);
        ni.next_seq += 1;
        if is_tail {
            ni.queue.pop_front();
            ni.cur_vc = None;
            ni.next_seq = 0;
            self.queued -= 1;
        }
        if ctx.tracing && flit.is_head() {
            self.injected_traces.push(pid);
        }
        let node = NodeId::from(self.node_lo + local_node);
        let router = self.mesh.router_of(node);
        let port = self.mesh.local_port_of(node);
        let arrival = Arrival::new(LinkDest::Router { router, port }, vc, flit);
        self.schedule(now + 1, arrival, now);
        // Injection statistics. Per-packet counters are committed at tail
        // injection so a drain cutoff can never split a packet across the
        // two sides of the Figure 11 normalization.
        if measured {
            self.inject_tally.flits += 1;
            if is_tail {
                match kind {
                    PacketKind::Data => {
                        self.inject_tally.data_flits += num_flits as u64;
                        self.inject_tally.baseline_flits += baseline_flits as u64;
                    }
                    PacketKind::Control => self.inject_tally.control_flits += 1,
                }
            }
        }
        true
    }

    /// Applies what every shard's phase A sent this one, in source-shard
    /// order: arrivals land two cycles after their grant, and credits go
    /// back to local routers and NIs before any NI injects. Source-shard
    /// order is the global router-ascending grant order restricted to this
    /// shard, so the ring holds exactly what the single-shard kernel would.
    fn apply_inbox(&mut self, now: u64) {
        let ring = Self::ring_index(now + 2);
        for src in 0..self.inbox.len() {
            let mail = &mut self.inbox[src];
            self.events[ring].append(&mut mail.arrivals);
            for c in mail.credits.drain(..) {
                let vc = c.vc as usize;
                for _ in 0..c.copies {
                    match c.sink {
                        CreditSink::Router { router, port, .. } => {
                            self.routers[router as usize].return_credit(port as usize, vc);
                        }
                        CreditSink::Ni { node, .. } => self.nis[node as usize].vc_credits[vc] += 1,
                    }
                }
            }
        }
    }

    /// Schedules an arrival into this shard's own ring.
    pub fn schedule(&mut self, at: u64, arrival: Arrival, now: u64) {
        debug_assert!(at > now && at < now + EVENT_HORIZON as u64);
        self.events[(at % EVENT_HORIZON as u64) as usize].push(arrival);
    }
}
