//! The three-stage virtual-channel wormhole router.
//!
//! Pipeline model (Table 1: "2 GHz three stage router"): a flit written into
//! an input VC buffer at cycle `a` (BW + RC) becomes eligible for allocation
//! at `a+1` (VA + SA) and, once granted, traverses the switch and link to be
//! written downstream at `g+2` (ST + LT) — three cycles per hop when
//! uncontended. Credit-based flow control backpressures the VC buffers;
//! virtual-channel allocation holds an output VC from a packet's head grant
//! to its tail traversal (wormhole).
//!
//! State layout (DESIGN.md §7): every per-VC record lives in one flat array
//! indexed `port * vcs + vc`, and the input VC buffers are rings cut from a
//! single slot array, so an allocator probe is a couple of indexed loads.

use anoc_core::snap::{SnapError, SnapReader, SnapWriter};

use crate::config::{MAX_PORTS, MAX_VCS};
use crate::packet::Flit;
use crate::snapshot::{load_flit, load_opt_usize_below, save_flit, save_opt_usize};

/// `x mod m` for `x < 2m`: one compare instead of a hardware divide, which
/// dominated the allocation loop's round-robin index arithmetic.
#[inline(always)]
fn wrap(x: usize, m: usize) -> usize {
    if x >= m {
        x - m
    } else {
        x
    }
}

/// Rotates the low `width` bits of `mask` right by `start < width`, so bit
/// `k` of the result stands for index `start + k` (mod `width`): the first
/// set bit is then the round-robin winner.
#[inline(always)]
fn rotate(mask: u64, start: usize, width: usize) -> u64 {
    if start == 0 {
        mask
    } else {
        ((mask >> start) | (mask << (width - start))) & (u64::MAX >> (64 - width))
    }
}

/// Sentinel of the `u8` route, output-VC and holder fields: no value.
const NONE: u8 = u8::MAX;

/// Where an output port's link lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkDest {
    /// Another router's input port.
    Router {
        /// Downstream router id.
        router: usize,
        /// Input port index at the downstream router.
        port: usize,
    },
    /// A local NI's ejection path.
    Eject {
        /// The node ejected to.
        node: usize,
    },
}

/// One input VC: its ring (`len` flits from `head` in the VC's stretch of
/// the slot array) and the route and output VC its packet holds.
#[derive(Debug, Clone, Copy)]
struct InVc {
    head: u32,
    len: u32,
    /// Output port of the packet at the head, [`NONE`] before RC.
    route: u8,
    /// Output VC the packet holds, [`NONE`] before VA.
    out_vc: u8,
}

/// Per-input-port allocation state.
#[derive(Debug, Clone, Copy)]
struct InPort {
    /// Bitmask of VCs holding at least one flit.
    occupied: u32,
    /// Round-robin pointer over VCs.
    rr: u8,
    /// The VC phase 1 nominated this cycle; read only for ports whose bit
    /// is set in some output's request mask.
    nominated: u8,
}

/// One downstream VC's flow-control state: remaining credits and, while a
/// wormhole holds the VC, the (input port, input VC) holding it.
#[derive(Debug, Clone, Copy)]
struct OutVc {
    credits: u32,
    holder_port: u8,
    holder_vc: u8,
}

/// Per-output-port allocation state.
#[derive(Debug, Clone, Copy)]
struct OutPort {
    /// Bitmask of output VCs no wormhole holds.
    free: u32,
    /// Round-robin pointer over output VCs (VA).
    vc_rr: u8,
    /// Round-robin pointer over input ports (SA).
    rr: u8,
}

/// A switch traversal granted this cycle, to be applied by the network.
/// Links are numbered globally, `router * ports + port`, so the network
/// resolves both ends against its wiring tables with one indexed load.
#[derive(Debug, Clone, Copy)]
pub struct Traversal {
    /// The moving flit.
    pub flit: Flit,
    /// The output link taken.
    pub link: u32,
    /// The input link the flit left: its upstream is owed the freed slot.
    pub from: u32,
    /// Downstream VC it occupies.
    pub out_vc: u8,
    /// Input VC it left.
    pub in_vc: u8,
}

/// Microarchitectural event counters of one router (drive the power model).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterActivity {
    /// Flits written into input buffers.
    pub buffer_writes: u64,
    /// Flits read out of input buffers (switch traversals).
    pub buffer_reads: u64,
    /// Output VC allocations performed.
    pub vc_allocs: u64,
    /// Switch allocation grants (crossbar traversals).
    pub crossbar_traversals: u64,
    /// Router-to-router link traversals.
    pub link_traversals: u64,
}

impl RouterActivity {
    /// Merges another activity record into this one.
    pub fn merge(&mut self, other: &RouterActivity) {
        self.buffer_writes += other.buffer_writes;
        self.buffer_reads += other.buffer_reads;
        self.vc_allocs += other.vc_allocs;
        self.crossbar_traversals += other.crossbar_traversals;
        self.link_traversals += other.link_traversals;
    }
}

/// One mesh router.
#[derive(Debug, Clone)]
pub struct Router {
    id: usize,
    /// Global index of this router's port-0 link (`id * ports`).
    link_base: u32,
    vcs: usize,
    /// Slots per input VC ring: the credited `vc_buffer`, doubled each time
    /// a duplicated-credit fault overfills a ring.
    cap: usize,
    /// Ring storage: input VC `i` owns `slots[i * cap..(i + 1) * cap]`.
    slots: Vec<Flit>,
    /// Per input VC, indexed `port * vcs + vc`.
    in_vcs: Vec<InVc>,
    in_ports: Vec<InPort>,
    /// Per output VC, indexed `port * vcs + vc`.
    out_vcs: Vec<OutVc>,
    out_ports: Vec<OutPort>,
    /// Bitmask of input ports holding at least one flit: phase 1 walks its
    /// set bits instead of every port.
    busy_ports: u64,
    /// Bitmask of output ports that are not credit flow-controlled
    /// (ejection paths and unwired edge ports).
    eject_ports: u64,
    /// Per output port, the input ports requesting it this cycle. Phase 2
    /// zeroes each mask it consumes, so the table is clean between calls.
    out_requests: Vec<u64>,
    /// Flits currently held across all input VC buffers. Maintained so the
    /// network can skip allocation for idle routers in O(1).
    buffered: usize,
    activity: RouterActivity,
}

impl Router {
    /// Builds a router with `ports` ports, `vcs` VCs of `vc_buffer` flits.
    /// Every output port starts out ejecting (not credit flow-controlled);
    /// the network wires its router-to-router links afterwards.
    ///
    /// # Panics
    ///
    /// Panics on more than 64 ports or 32 VCs (the allocator's bitmask
    /// widths); [`NocConfig::validate`](crate::NocConfig::validate) rejects
    /// such configurations first.
    pub fn new(id: usize, ports: usize, vcs: usize, vc_buffer: usize) -> Self {
        assert!(ports <= MAX_PORTS, "port bitmasks hold at most 64 ports");
        assert!(vcs <= MAX_VCS, "VC bitmasks hold at most 32 VCs");
        let cap = vc_buffer.max(1);
        Router {
            id,
            link_base: (id * ports) as u32,
            vcs,
            cap,
            slots: vec![Flit::EMPTY; ports * vcs * cap],
            in_vcs: vec![
                InVc {
                    head: 0,
                    len: 0,
                    route: NONE,
                    out_vc: NONE,
                };
                ports * vcs
            ],
            in_ports: vec![
                InPort {
                    occupied: 0,
                    rr: 0,
                    nominated: 0,
                };
                ports
            ],
            out_vcs: vec![
                OutVc {
                    credits: vc_buffer as u32,
                    holder_port: NONE,
                    holder_vc: NONE,
                };
                ports * vcs
            ],
            out_ports: vec![
                OutPort {
                    free: (u64::MAX >> (64 - vcs.max(1))) as u32,
                    vc_rr: 0,
                    rr: 0,
                };
                ports
            ],
            busy_ports: 0,
            eject_ports: u64::MAX >> (64 - ports.max(1)),
            out_requests: vec![0; ports],
            buffered: 0,
            activity: RouterActivity::default(),
        }
    }

    /// Router id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Wires output port `port` to `dest`; the router keeps only whether
    /// the port is credit flow-controlled. Ejection ports are not at all
    /// (the NI sinks one flit per cycle regardless): [`Router::allocate`]
    /// skips the credit check and decrement for them, so no finite counter
    /// can drain over a long-lived simulation.
    pub fn wire_output(&mut self, port: usize, dest: LinkDest) {
        match dest {
            LinkDest::Router { .. } => self.eject_ports &= !(1 << port),
            LinkDest::Eject { .. } => self.eject_ports |= 1 << port,
        }
    }

    /// Accepts a flit into an input VC buffer (BW stage). Flow control
    /// normally keeps a VC within its `vc_buffer` credits, but a
    /// duplicated-credit fault lets the upstream hop send more: the surplus
    /// is queued in FIFO order behind the rest, never dropped.
    pub fn accept_flit(&mut self, port: usize, vc: usize, flit: Flit) {
        self.activity.buffer_writes += 1;
        self.buffered += 1;
        let i = port * self.vcs + vc;
        if self.in_vcs[i].len as usize == self.cap {
            self.grow();
        }
        let cap = self.cap;
        let st = &mut self.in_vcs[i];
        let tail = wrap(st.head as usize + st.len as usize, cap);
        self.slots[i * cap + tail] = flit;
        st.len += 1;
        self.in_ports[port].occupied |= 1 << vc;
        self.busy_ports |= 1 << port;
    }

    /// Doubles every ring's capacity, re-laying each ring out from slot 0
    /// of its new stretch. Only a duplicated-credit fault gets here.
    #[cold]
    fn grow(&mut self) {
        let cap = self.cap * 2;
        let mut slots = vec![Flit::EMPTY; self.in_vcs.len() * cap];
        for i in 0..self.in_vcs.len() {
            for (k, f) in self.ring(i).enumerate() {
                slots[i * cap + k] = *f;
            }
        }
        for st in &mut self.in_vcs {
            st.head = 0;
        }
        self.slots = slots;
        self.cap = cap;
    }

    /// The buffered flits of input VC `i`, oldest first.
    fn ring(&self, i: usize) -> impl Iterator<Item = &Flit> {
        let st = self.in_vcs[i];
        let base = &self.slots[i * self.cap..(i + 1) * self.cap];
        (0..st.len as usize).map(move |k| &base[(st.head as usize + k) % self.cap])
    }

    /// Whether every input VC buffer is empty — an idle router's allocation
    /// cycle is a guaranteed no-op, so the network skips it entirely.
    pub fn is_idle(&self) -> bool {
        self.buffered == 0
    }

    /// Returns one credit for output port `port`, VC `vc`.
    pub fn return_credit(&mut self, port: usize, vc: usize) {
        if self.eject_ports & (1 << port) == 0 {
            self.out_vcs[port * self.vcs + vc].credits += 1;
        }
    }

    /// Buffered flit count across all input VCs (for drain detection).
    pub fn occupancy(&self) -> usize {
        debug_assert_eq!(
            self.buffered,
            self.in_vcs.iter().map(|v| v.len as usize).sum::<usize>(),
            "buffered counter out of sync with the VC buffers"
        );
        self.buffered
    }

    /// Accumulated event counters.
    pub fn activity(&self) -> RouterActivity {
        self.activity
    }

    /// The wormhole holder of output VC `i`, if any.
    fn holder(&self, i: usize) -> Option<(u32, u32)> {
        let v = self.out_vcs[i];
        (v.holder_port != NONE).then_some((v.holder_port as u32, v.holder_vc as u32))
    }

    /// Flow-control snapshot for deadlock diagnostics: per output port, each
    /// VC's `(remaining credits, wormhole holder)` where the holder is the
    /// `(input port, input VC)` currently owning the VC.
    pub fn flow_snapshot(&self) -> crate::faults::PortFlows {
        (0..self.out_ports.len())
            .map(|op| {
                (op * self.vcs..(op + 1) * self.vcs)
                    .map(|i| (self.out_vcs[i].credits, self.holder(i)))
                    .collect()
            })
            .collect()
    }

    /// Serializes the router's mutable state for a snapshot: per input VC the
    /// buffered flits (slots translated to canonical packet indices by
    /// `remap`) and held route/VC, per output VC the credits and wormhole
    /// holder, the round-robin pointers and the activity counters. Wiring
    /// is configuration, not state, and is skipped; the
    /// occupancy and free-VC bitmasks, the ring capacity and the `buffered`
    /// count are derived and recomputed on load.
    pub(crate) fn save_state(
        &self,
        w: &mut SnapWriter,
        remap: &impl Fn(u32) -> Option<u32>,
    ) -> Result<(), SnapError> {
        let opt = |x: u8| (x != NONE).then_some(x as usize);
        for (ip, port) in self.in_ports.iter().enumerate() {
            w.usize(port.rr as usize);
            for i in ip * self.vcs..(ip + 1) * self.vcs {
                let st = self.in_vcs[i];
                w.usize(st.len as usize);
                for f in self.ring(i) {
                    save_flit(w, f, remap)?;
                }
                save_opt_usize(w, opt(st.route));
                save_opt_usize(w, opt(st.out_vc));
            }
        }
        for (op, port) in self.out_ports.iter().enumerate() {
            w.usize(port.vc_rr as usize);
            w.usize(port.rr as usize);
            for i in op * self.vcs..(op + 1) * self.vcs {
                w.u32(self.out_vcs[i].credits);
                match self.holder(i) {
                    Some((ip, v)) => {
                        w.bool(true);
                        w.u32(ip);
                        w.u32(v);
                    }
                    None => w.bool(false),
                }
            }
        }
        w.u64(self.activity.buffer_writes);
        w.u64(self.activity.buffer_reads);
        w.u64(self.activity.vc_allocs);
        w.u64(self.activity.crossbar_traversals);
        w.u64(self.activity.link_traversals);
        Ok(())
    }

    /// Restores state written by [`Router::save_state`] into a router built
    /// with the same geometry. Every index that later feeds the allocator's
    /// rotate arithmetic is range-checked here so a corrupt blob fails as a
    /// typed error, never as a shift overflow mid-campaign.
    pub(crate) fn load_state(
        &mut self,
        r: &mut SnapReader<'_>,
        remap: &impl Fn(u32) -> Option<u32>,
    ) -> Result<(), SnapError> {
        let num_in = self.in_ports.len();
        let num_vcs = self.vcs;
        let as_u8 = |x: Option<usize>| x.map_or(NONE, |x| x as u8);
        for st in &mut self.in_vcs {
            st.head = 0;
            st.len = 0;
        }
        self.buffered = 0;
        self.busy_ports = 0;
        for ip in 0..num_in {
            let rr = r.usize()?;
            if rr >= num_vcs {
                return Err(SnapError::Invalid("input round-robin index"));
            }
            self.in_ports[ip].rr = rr as u8;
            self.in_ports[ip].occupied = 0;
            for v in 0..num_vcs {
                let n = r.usize()?;
                if n > 1 << 20 {
                    return Err(SnapError::Invalid("vc buffer length"));
                }
                for _ in 0..n {
                    let flit = load_flit(r, remap)?;
                    self.accept_flit(ip, v, flit);
                }
                let i = ip * num_vcs + v;
                self.in_vcs[i].route =
                    as_u8(load_opt_usize_below(r, num_in, "allocated output port")?);
                self.in_vcs[i].out_vc =
                    as_u8(load_opt_usize_below(r, num_vcs, "allocated output vc")?);
            }
        }
        for op in 0..num_in {
            let vc_rr = r.usize()?;
            let rr = r.usize()?;
            if vc_rr >= num_vcs || rr >= num_in {
                return Err(SnapError::Invalid("output round-robin index"));
            }
            let port = &mut self.out_ports[op];
            port.vc_rr = vc_rr as u8;
            port.rr = rr as u8;
            port.free = 0;
            for v in 0..num_vcs {
                let ovc = &mut self.out_vcs[op * num_vcs + v];
                ovc.credits = r.u32()?;
                (ovc.holder_port, ovc.holder_vc) = if r.bool()? {
                    let ip = r.u32()?;
                    let iv = r.u32()?;
                    if ip as usize >= num_in || iv as usize >= num_vcs {
                        return Err(SnapError::Invalid("wormhole holder"));
                    }
                    (ip as u8, iv as u8)
                } else {
                    port.free |= 1 << v;
                    (NONE, NONE)
                };
            }
        }
        self.activity = RouterActivity {
            buffer_writes: r.u64()?,
            buffer_reads: r.u64()?,
            vc_allocs: r.u64()?,
            crossbar_traversals: r.u64()?,
            link_traversals: r.u64()?,
        };
        Ok(())
    }

    /// One allocation cycle: VA + SA over all ports, appending the granted
    /// switch traversals to `grants` (a caller-owned scratch buffer, so the
    /// steady-state loop never allocates). `route_of` maps a head flit's
    /// destination to an output port (RC). At most one grant per input port
    /// and per output port (a single-crossbar, separable allocator with
    /// round-robin priorities).
    pub fn allocate(
        &mut self,
        now: u64,
        route_of: impl Fn(&Flit) -> usize,
        grants: &mut Vec<Traversal>,
    ) {
        if self.buffered == 0 {
            return;
        }
        // Destructure for split borrows: the nomination loop walks input
        // VCs while probing output-VC credits and holders.
        let Router {
            link_base,
            vcs,
            cap,
            slots,
            in_vcs,
            in_ports,
            out_vcs,
            out_ports,
            busy_ports,
            eject_ports,
            out_requests,
            buffered,
            activity,
            ..
        } = self;
        let (vcs, cap, eject_ports) = (*vcs, *cap, *eject_ports);
        let num_in = in_ports.len();
        // Phase 1 — each occupied input port nominates one (vc, out_port)
        // request. Ports are walked ascending and, within a port, occupied
        // VCs in round-robin order from `rr`: rotating a mask so bit
        // position encodes priority, then peeling set bits lowest-first.
        let mut requested = 0u64;
        let mut ports = *busy_ports;
        while ports != 0 {
            let ip = ports.trailing_zeros() as usize;
            ports &= ports - 1;
            let port = &mut in_ports[ip];
            let start = port.rr as usize;
            let mut rot = rotate(u64::from(port.occupied), start, vcs);
            while rot != 0 {
                let v = wrap(start + rot.trailing_zeros() as usize, vcs);
                rot &= rot - 1;
                let i = ip * vcs + v;
                let st = &mut in_vcs[i];
                // The occupancy mask mirrors the ring lengths, so `head`
                // indexes a live flit.
                let flit = &slots[i * cap + st.head as usize];
                if flit.ready_at > now {
                    continue;
                }
                // RC: resolve the output port for a new packet.
                let op = if st.route != NONE {
                    st.route as usize
                } else {
                    debug_assert!(flit.is_head(), "body flit without an allocated route");
                    let op = route_of(flit);
                    st.route = op as u8;
                    op
                };
                let eject = eject_ports & (1 << op) != 0;
                // VA: obtain an output VC if the packet does not hold one.
                // Ejection ports never serialise packets onto a single VC —
                // the NI reassembles per packet — so they grant the input's
                // own VC unconditionally.
                let ovc = if st.out_vc != NONE {
                    st.out_vc as usize
                } else {
                    let granted = if eject {
                        v
                    } else {
                        let out = &mut out_ports[op];
                        if out.free == 0 {
                            continue; // no free downstream VC; try another input VC
                        }
                        let vstart = out.vc_rr as usize;
                        let free = rotate(u64::from(out.free), vstart, vcs);
                        let ov = wrap(vstart + free.trailing_zeros() as usize, vcs);
                        out.free &= !(1 << ov);
                        out.vc_rr = wrap(ov + 1, vcs) as u8;
                        let held = &mut out_vcs[op * vcs + ov];
                        held.holder_port = ip as u8;
                        held.holder_vc = v as u8;
                        ov
                    };
                    st.out_vc = granted as u8;
                    activity.vc_allocs += 1;
                    granted
                };
                // Credit check (ST needs a downstream buffer slot). Ejection
                // is not credit flow-controlled: the NI sinks a flit per
                // cycle, so eject grants neither check nor spend credits.
                if !eject && out_vcs[op * vcs + ovc].credits == 0 {
                    continue;
                }
                port.nominated = v as u8;
                out_requests[op] |= 1 << ip;
                requested |= 1 << op;
                break;
            }
        }
        // Phase 2 — each requested output port, ascending, grants one
        // requesting input port: the round-robin winner is the first set bit
        // of the request mask rotated to start at the port's priority
        // pointer.
        while requested != 0 {
            let op = requested.trailing_zeros() as usize;
            requested &= requested - 1;
            let mask = std::mem::take(&mut out_requests[op]);
            let out = &mut out_ports[op];
            let start = out.rr as usize;
            let ip = wrap(
                start + rotate(mask, start, num_in).trailing_zeros() as usize,
                num_in,
            );
            let in_port = &mut in_ports[ip];
            let v = in_port.nominated as usize;
            let i = ip * vcs + v;
            let st = &mut in_vcs[i];
            let flit = slots[i * cap + st.head as usize];
            st.head = wrap(st.head as usize + 1, cap) as u32;
            st.len -= 1;
            *buffered -= 1;
            let ovc = st.out_vc as usize;
            if flit.is_tail {
                // Release the wormhole: route and output VC free up.
                st.route = NONE;
                st.out_vc = NONE;
                let held = &mut out_vcs[op * vcs + ovc];
                held.holder_port = NONE;
                held.holder_vc = NONE;
                out.free |= 1 << ovc;
            }
            if st.len == 0 {
                in_port.occupied &= !(1 << v);
                if in_port.occupied == 0 {
                    *busy_ports &= !(1 << ip);
                }
            }
            if eject_ports & (1 << op) == 0 {
                out_vcs[op * vcs + ovc].credits -= 1;
                activity.link_traversals += 1;
            }
            activity.buffer_reads += 1;
            activity.crossbar_traversals += 1;
            in_port.rr = wrap(v + 1, vcs) as u8;
            out.rr = wrap(ip + 1, num_in) as u8;
            grants.push(Traversal {
                flit,
                link: *link_base + op as u32,
                from: *link_base + ip as u32,
                out_vc: ovc as u8,
                in_vc: v as u8,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anoc_core::data::NodeId;

    fn flit(pid: u32, seq: u32, tail: bool, ready: u64) -> Flit {
        Flit {
            slot: pid,
            seq,
            is_tail: tail,
            dest: NodeId(0),
            ready_at: ready,
        }
    }

    fn test_router() -> Router {
        let mut r = Router::new(0, 3, 2, 4);
        r.wire_output(1, LinkDest::Router { router: 1, port: 3 });
        r.wire_output(2, LinkDest::Eject { node: 0 });
        r
    }

    /// Collects one allocation cycle's grants into a fresh vector.
    fn allocate(r: &mut Router, now: u64, route_of: impl Fn(&Flit) -> usize) -> Vec<Traversal> {
        let mut grants = Vec::new();
        r.allocate(now, route_of, &mut grants);
        grants
    }

    #[test]
    fn single_flit_traverses_after_pipeline_delay() {
        let mut r = test_router();
        r.accept_flit(0, 0, flit(1, 0, true, 1));
        // Not ready at cycle 0.
        assert!(allocate(&mut r, 0, |_| 1).is_empty());
        let grants = allocate(&mut r, 1, |_| 1);
        assert_eq!(grants.len(), 1);
        let t = grants[0];
        assert_eq!(t.flit.slot, 1);
        assert_eq!((t.link, t.out_vc), (1, 0));
        assert_eq!((t.from, t.in_vc), (0, 0));
        assert_eq!(r.occupancy(), 0);
    }

    #[test]
    fn credits_backpressure() {
        let mut r = test_router();
        // Exhaust the 4 credits of out port 1, vc 0 — a 5-flit packet stalls
        // on the fifth flit until credits return.
        for seq in 0..5 {
            r.accept_flit(0, 0, flit(1, seq, seq == 4, 0));
        }
        let mut sent = 0;
        for now in 1..=4 {
            sent += allocate(&mut r, now, |_| 1).len();
        }
        assert_eq!(sent, 4);
        assert!(allocate(&mut r, 5, |_| 1).is_empty(), "no credit left");
        r.return_credit(1, 0);
        assert_eq!(allocate(&mut r, 6, |_| 1).len(), 1);
    }

    #[test]
    fn wormhole_holds_output_vc_until_tail() {
        let mut r = test_router();
        // Packet A (head, not tail) on vc 0 grabs an output VC and keeps it.
        r.accept_flit(0, 0, flit(1, 0, false, 0));
        r.accept_flit(0, 1, flit(2, 0, true, 0));
        let g1 = allocate(&mut r, 1, |_| 1);
        assert_eq!(g1.len(), 1);
        assert_eq!(g1[0].flit.slot, 1);
        let vc_a = g1[0].out_vc;
        // Packet B must get a *different* output VC.
        let g2 = allocate(&mut r, 2, |_| 1);
        assert_eq!(g2.len(), 1);
        assert_eq!(g2[0].flit.slot, 2);
        assert_ne!(g2[0].out_vc, vc_a);
        // A's tail arrives and releases the VC.
        r.accept_flit(0, 0, flit(1, 1, true, 2));
        let g3 = allocate(&mut r, 3, |_| 1);
        assert_eq!(g3.len(), 1);
        assert_eq!(g3[0].out_vc, vc_a);
        // Now both output VCs are free again.
        r.accept_flit(0, 0, flit(3, 0, true, 3));
        let g4 = allocate(&mut r, 4, |_| 1);
        assert_eq!(g4.len(), 1);
    }

    #[test]
    fn output_port_grants_one_flit_per_cycle() {
        let mut r = test_router();
        // Two inputs contending for out port 1.
        r.accept_flit(0, 0, flit(1, 0, true, 0));
        r.accept_flit(1, 0, flit(2, 0, true, 0));
        let g1 = allocate(&mut r, 1, |_| 1);
        assert_eq!(g1.len(), 1);
        let g2 = allocate(&mut r, 2, |_| 1);
        assert_eq!(g2.len(), 1);
        assert_ne!(g1[0].flit.slot, g2[0].flit.slot, "round-robin rotates");
    }

    #[test]
    fn ejection_needs_no_credits() {
        // Ejection ports have no downstream buffer to run out of — the NI
        // consumes flits as they arrive — so far more flits than any VC
        // buffer must flow out without a single credit ever returning.
        let mut r = test_router();
        for seq in 0..20 {
            r.accept_flit(0, 0, flit(1, seq, seq == 19, seq as u64));
        }
        let mut sent = 0;
        for now in 1..=30 {
            sent += allocate(&mut r, now, |_| 2).len();
        }
        assert_eq!(sent, 20);
        assert_eq!(r.occupancy(), 0);
        assert_eq!(r.activity().crossbar_traversals, 20);
        assert_eq!(r.activity().link_traversals, 0, "ejection is not a link");
    }

    #[test]
    fn vc_exhaustion_blocks_new_packets() {
        let mut r = test_router();
        // Two in-progress packets hold both output VCs of port 1.
        r.accept_flit(0, 0, flit(1, 0, false, 0));
        r.accept_flit(0, 1, flit(2, 0, false, 0));
        assert_eq!(allocate(&mut r, 1, |_| 1).len(), 1);
        assert_eq!(allocate(&mut r, 2, |_| 1).len(), 1);
        // A third packet from another input port finds no free VC.
        r.accept_flit(1, 0, flit(3, 0, false, 0));
        assert!(allocate(&mut r, 3, |_| 1).is_empty());
        assert_eq!(r.activity().vc_allocs, 2);
    }

    #[test]
    fn ejection_bypasses_vc_limits() {
        let mut r = test_router();
        r.accept_flit(0, 0, flit(1, 0, false, 0));
        r.accept_flit(0, 1, flit(2, 0, false, 0));
        r.accept_flit(1, 0, flit(3, 0, false, 0));
        let mut got = 0;
        for now in 1..=4 {
            got += allocate(&mut r, now, |_| 2).len();
        }
        assert_eq!(got, 3, "eject port never runs out of VCs or credits");
    }

    #[test]
    fn overfilled_vc_keeps_fifo_order() {
        // A duplicated-credit fault lets the upstream hop send more flits
        // than a VC's four slots hold: the ring grows and the surplus queues
        // behind the rest, in order, whatever the ring's head position.
        let mut r = test_router();
        for seq in 0..3 {
            r.accept_flit(0, 1, flit(7, seq, false, 0));
        }
        let sent: Vec<u32> = (1..=2)
            .flat_map(|now| allocate(&mut r, now, |_| 1))
            .map(|t| t.flit.seq)
            .collect();
        assert_eq!(sent, [0, 1]);
        for seq in 3..13 {
            r.accept_flit(0, 1, flit(7, seq, seq == 12, 0));
        }
        r.accept_flit(1, 0, flit(8, 0, true, 0));
        assert_eq!(r.occupancy(), 12);
        // The packet holds one output VC of port 1 and spent two credits.
        let flows = r.flow_snapshot();
        let held: Vec<usize> = (0..flows[1].len())
            .filter(|&v| flows[1][v].1.is_some())
            .collect();
        assert_eq!(held.len(), 1);
        let ovc = held[0];
        assert_eq!(flows[1][ovc], (2, Some((0, 1))));
        // The grown state survives a snapshot round trip byte for byte.
        let save = |r: &Router| {
            let mut w = SnapWriter::new();
            r.save_state(&mut w, &|s| Some(s)).expect("save");
            w.into_bytes()
        };
        let bytes = save(&r);
        let mut restored = test_router();
        restored
            .load_state(&mut SnapReader::new(&bytes), &|s| Some(s))
            .expect("load");
        assert_eq!(save(&restored), bytes);
        assert_eq!(restored.occupancy(), 12);
        // With credits returned, the rest drains in FIFO order and the tail
        // releases the output VC.
        for _ in 0..10 {
            r.return_credit(1, ovc);
        }
        let mut seqs = Vec::new();
        for now in 3..40 {
            for t in allocate(&mut r, now, |f| if f.slot == 7 { 1 } else { 2 }) {
                if t.flit.slot == 7 {
                    seqs.push(t.flit.seq);
                }
            }
        }
        assert_eq!(seqs, (2..13).collect::<Vec<u32>>());
        assert_eq!(r.occupancy(), 0);
        assert!(r.flow_snapshot()[1].iter().all(|&(_, h)| h.is_none()));
    }

    #[test]
    fn activity_counters() {
        let mut r = test_router();
        r.accept_flit(0, 0, flit(1, 0, true, 0));
        allocate(&mut r, 1, |_| 1);
        let a = r.activity();
        assert_eq!(a.buffer_writes, 1);
        assert_eq!(a.buffer_reads, 1);
        assert_eq!(a.crossbar_traversals, 1);
        assert_eq!(a.link_traversals, 1);
        let mut b = RouterActivity::default();
        b.merge(&a);
        assert_eq!(b, a);
    }
}
