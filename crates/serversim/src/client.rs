//! The client side both rigs share: the emulated `clientsim` users, their
//! socket timers and current connections, and the flows that carry bytes
//! to them over the links.
//!
//! [`Testbed`](crate::testbed::Testbed) and
//! [`FleetTestbed`](crate::fleet::FleetTestbed) differ in what sits behind
//! a connection (one server, or a balancer in front of replicas) but not in
//! what a client does. [`ClientHost`] names the places where the rig shows
//! through: opening a connection and where its SYN goes, one-way latency
//! to the connection's server, client-side close, where a request burst
//! goes, and the single-server testbed's observability capture. The rest
//! lives here once, so both rigs replay the same client event order.

use crate::conntable::ConnTable;
use clientsim::{Client, ClientAction, ClientConfig, ClientId, ClientMetrics};
use desim::{Ctx, Engine, EventId, Model, Rng, SimDuration, SimTime};
use netsim::{CloseKind, ConnId, ConnState, Connection, FlowId, PsLink};
use std::collections::HashMap;
use std::ops::Range;
use workload::{FileId, FileSet};

/// Client-side events, wrapped by each rig's event enum.
#[derive(Debug)]
pub enum ClientEv {
    /// A client machine brings one emulated client online.
    ClientArrive(ClientId),
    /// The client issues a (new) SYN now.
    ClientConnect(ClientId),
    /// The client retransmits a dropped SYN.
    SynRetry(ConnId),
    /// The SYN-ACK reached the client: connection established.
    EstablishedAtClient(ConnId),
    /// An RST reached the client.
    ResetAtClient(ConnId),
    /// An explicit refusal (RST to a connecting client) reached the client.
    RefusedAtClient(ConnId),
    /// The client's think timer expired.
    ClientThinkDone(ClientId),
    /// The client's socket timeout expired.
    ClientTimeout(ClientId),
    /// The earliest flow on link `i` completes around now.
    LinkTick(usize),
}

/// Per-client runtime bookkeeping: the current connection and the pending
/// socket-timeout event.
#[derive(Debug, Default)]
struct ClientRt {
    conn: Option<ConnId>,
    timeout_ev: Option<EventId>,
}

/// The emulated client population and its runtime state.
pub(crate) struct ClientDriver {
    clients: Vec<Client>,
    rt: Vec<ClientRt>,
    /// Link bytes one handshake burns; a SYN retransmit costs a quarter.
    handshake_bytes: f64,
}

impl ClientDriver {
    /// Clients `0..n`, each with its own RNG stream split off `seed`.
    pub(crate) fn new(
        n: u32,
        cfg: &ClientConfig,
        files: &FileSet,
        seed: u64,
        handshake_bytes: f64,
    ) -> ClientDriver {
        let root = Rng::new(seed ^ 0xC11E_17A5);
        ClientDriver {
            clients: (0..n)
                .map(|i| Client::new(ClientId(i), cfg.clone(), files, &root))
                .collect(),
            rt: (0..n).map(|_| ClientRt::default()).collect(),
            handshake_bytes,
        }
    }

    pub(crate) fn client(&self, cid: ClientId) -> &Client {
        &self.clients[cid.0 as usize]
    }

    /// True while `conn` is the connection `cid` is using.
    pub(crate) fn is_current(&self, cid: ClientId, conn: ConnId) -> bool {
        self.rt[cid.0 as usize].conn == Some(conn)
    }

    fn arm_timeout<E: From<ClientEv>>(&mut self, ctx: &mut Ctx<'_, E>, cid: ClientId) {
        self.disarm_timeout(ctx, cid);
        let d = self.clients[cid.0 as usize].timeout();
        self.rt[cid.0 as usize].timeout_ev =
            Some(ctx.schedule_in(d, ClientEv::ClientTimeout(cid).into()));
    }

    fn disarm_timeout<E>(&mut self, ctx: &mut Ctx<'_, E>, cid: ClientId) {
        if let Some(ev) = self.rt[cid.0 as usize].timeout_ev.take() {
            ctx.cancel(ev);
        }
    }
}

/// Every flow in flight towards the clients: replies, and handshake or
/// teardown overhead that consumes bandwidth and delivers nothing.
pub(crate) struct FlowTable<R> {
    pub(crate) links: Vec<PsLink>,
    /// Each link's pending next-completion event.
    ticks: Vec<Option<EventId>>,
    /// What each flow carries back when it completes; `None` for overhead.
    flows: HashMap<FlowId, Option<R>>,
    next_flow: u64,
}

impl<R> FlowTable<R> {
    pub(crate) fn new(links: Vec<PsLink>) -> FlowTable<R> {
        FlowTable {
            ticks: vec![None; links.len()],
            links,
            flows: HashMap::new(),
            next_flow: 0,
        }
    }

    /// Start a flow of `bytes` on link `li`. The caller reschedules the
    /// link once it has started everything due now.
    pub(crate) fn open(&mut self, now: SimTime, li: usize, bytes: f64, reply: Option<R>) -> FlowId {
        self.next_flow += 1;
        let fid = FlowId(self.next_flow);
        self.flows.insert(fid, reply);
        self.links[li].start_flow(now, fid, bytes);
        fid
    }

    pub(crate) fn start_overhead_flow<E: From<ClientEv>>(
        &mut self,
        ctx: &mut Ctx<'_, E>,
        li: usize,
        bytes: f64,
    ) {
        if bytes <= 0.0 {
            return;
        }
        self.open(ctx.now(), li, bytes, None);
        self.resched(ctx, li);
    }

    /// Cancel flow `fid` on link `li`: the bytes it had left and the reply
    /// it carried.
    pub(crate) fn cancel(&mut self, now: SimTime, li: usize, fid: FlowId) -> (f64, Option<R>) {
        let left = self.links[li].cancel_flow(now, fid).unwrap_or(0.0);
        (left, self.flows.remove(&fid).flatten())
    }

    /// Reschedule link `li`'s next-completion event.
    pub(crate) fn resched<E: From<ClientEv>>(&mut self, ctx: &mut Ctx<'_, E>, li: usize) {
        if let Some(old) = self.ticks[li].take() {
            ctx.cancel(old);
        }
        if let Some((t, _)) = self.links[li].next_completion(ctx.now()) {
            let at = t.max(ctx.now());
            self.ticks[li] = Some(ctx.schedule_at(at, ClientEv::LinkTick(li).into()));
        }
    }

    /// Complete the next flow on `li` due by `now`: `Some(reply)` for a
    /// reply flow, `Some(None)` for overhead, `None` once nothing is due.
    fn complete_due(&mut self, now: SimTime, li: usize) -> Option<Option<R>> {
        match self.links[li].next_completion(now) {
            Some((t, _)) if t <= now => {
                let fid = self.links[li].complete_next(now)?;
                Some(self.flows.remove(&fid).flatten())
            }
            _ => None,
        }
    }
}

/// What the driver reads and writes on a rig's connection record.
pub(crate) trait ClientConn {
    fn client(&self) -> ClientId;
    fn net(&self) -> &Connection;
    fn net_mut(&mut self) -> &mut Connection;
    /// No CPU job or flow still references the record.
    fn unreferenced(&self) -> bool;
}

/// The rig state the driver works on, borrowed field by field.
pub(crate) struct Parts<'a, C, R> {
    pub(crate) driver: &'a mut ClientDriver,
    pub(crate) conns: &'a mut ConnTable<C>,
    pub(crate) flows: &'a mut FlowTable<R>,
    pub(crate) files: &'a FileSet,
    pub(crate) metrics: &'a mut ClientMetrics,
    pub(crate) stale_events: &'a mut u64,
}

/// Client-visible moments a rig may capture.
pub(crate) enum ClientObs {
    /// `requests` requests left the client on `conn`.
    Burst { conn: ConnId, requests: usize },
    /// `conn` is established; its client began connecting at `since`.
    Connected { conn: ConnId, since: SimTime },
    /// An RST reached the client of `conn`.
    Reset { conn: ConnId },
    /// `conn` was refused; its client began connecting at `since`.
    Refused { conn: ConnId, since: SimTime },
    /// Client `cid`'s socket timeout fired.
    Timeout { cid: ClientId },
}

/// What differs between the rigs the client driver runs against.
pub(crate) trait ClientHost: Sized {
    type Ev: From<ClientEv>;
    type Conn: ClientConn;
    /// What a reply flow hands back to the rig when it completes.
    type Reply;

    fn parts(&mut self) -> Parts<'_, Self::Conn, Self::Reply>;
    /// Insert the record of a connection `cid` opens now.
    fn open_conn(&mut self, now: SimTime, cid: ClientId) -> ConnId;
    /// The event `conn`'s SYN becomes where it lands.
    fn syn(conn: ConnId) -> Self::Ev;
    /// The link `conn`'s packets cross.
    fn link(&self, conn: ConnId) -> usize;
    /// One-way latency between the client and `conn`'s server.
    fn latency(&self, conn: ConnId) -> SimDuration;
    /// Tear `conn` down from the client side (abort or clean close).
    fn close_client_side(&mut self, ctx: &mut Ctx<'_, Self::Ev>, conn: ConnId, kind: CloseKind);
    /// Clients with an id below this trickle their request bytes on
    /// `conn` (slow loris).
    fn loris_clients(&self, conn: ConnId) -> u32;
    /// The event a request burst on `conn` becomes where it lands.
    fn burst(conn: ConnId, files: Vec<FileId>) -> Self::Ev;
    /// A reply flow finished crossing its link.
    fn reply_done(&mut self, ctx: &mut Ctx<'_, Self::Ev>, reply: Self::Reply);
    /// Capture hook; the default records nothing.
    fn observe(&mut self, _now: SimTime, _what: ClientObs) {}
    /// The driver changed `conn`'s net state.
    fn conn_changed(&mut self, _conn: ConnId) {}
    /// The driver dropped `rec` from the connection table.
    fn dropped(&mut self, _rec: Self::Conn) {}
}

/// Schedule the arrivals of clients `ids`, uniformly spread over
/// `spread_ns` after `from`.
pub(crate) fn schedule_arrivals<M: Model>(
    engine: &mut Engine<M>,
    rng: &mut Rng,
    ids: Range<u32>,
    from: SimTime,
    spread_ns: u64,
) where
    M::Event: From<ClientEv>,
{
    for i in ids {
        let at = from + SimDuration::from_nanos(rng.below(spread_ns));
        engine.schedule_at(at, ClientEv::ClientArrive(ClientId(i)).into());
    }
}

/// Handle one client-side event.
pub(crate) fn handle<H: ClientHost>(h: &mut H, ctx: &mut Ctx<'_, H::Ev>, ev: ClientEv) {
    let now = ctx.now();
    match ev {
        ClientEv::ClientArrive(cid) => {
            let action = h.parts().driver.clients[cid.0 as usize].on_start(now);
            run_client_action(h, ctx, cid, action);
        }

        ClientEv::ClientConnect(cid) => connect(h, ctx, cid),

        ClientEv::SynRetry(conn) => {
            if connecting(h, conn).is_none() {
                return;
            }
            // The retransmitted SYN also burns handshake bytes.
            let bytes = h.parts().driver.handshake_bytes * 0.25;
            let li = h.link(conn);
            h.parts().flows.start_overhead_flow(ctx, li, bytes);
            let lat = h.latency(conn);
            ctx.schedule_in(lat, H::syn(conn));
        }

        ClientEv::EstablishedAtClient(conn) => {
            let Some(cid) = connecting(h, conn) else {
                return;
            };
            let p = h.parts();
            let net = p.conns.get_mut(&conn).expect("checked").net_mut();
            net.establish(now);
            // Connect-wait is anchored where the client's figure-4
            // connection-time metric is (read before `on_connected`
            // clears it).
            let since = p.driver.clients[cid.0 as usize]
                .connecting_since()
                .unwrap_or(net.opened_at);
            h.observe(now, ClientObs::Connected { conn, since });
            h.conn_changed(conn);
            let p = h.parts();
            let action = p.driver.clients[cid.0 as usize].on_connected(now, p.metrics);
            run_client_action(h, ctx, cid, action);
        }

        ClientEv::ResetAtClient(conn) => {
            let p = h.parts();
            let cid = p.conns.get(&conn).map(|r| r.client());
            let Some(cid) = cid.filter(|&c| p.driver.is_current(c, conn)) else {
                *p.stale_events += 1;
                return;
            };
            p.driver.disarm_timeout(ctx, cid);
            p.driver.rt[cid.0 as usize].conn = None;
            h.observe(now, ClientObs::Reset { conn });
            let p = h.parts();
            let action = p.driver.clients[cid.0 as usize].on_reset(now, p.files, p.metrics);
            maybe_gc(h, conn);
            run_client_action(h, ctx, cid, action);
        }

        ClientEv::RefusedAtClient(conn) => {
            let Some(cid) = connecting(h, conn) else {
                return;
            };
            let p = h.parts();
            let net = p.conns.get_mut(&conn).expect("checked").net_mut();
            let since = p.driver.clients[cid.0 as usize]
                .connecting_since()
                .unwrap_or(net.opened_at);
            net.close(now, CloseKind::ServerRefused);
            p.driver.disarm_timeout(ctx, cid);
            p.driver.rt[cid.0 as usize].conn = None;
            h.observe(now, ClientObs::Refused { conn, since });
            let p = h.parts();
            let action = p.driver.clients[cid.0 as usize].on_refused(now, p.files, p.metrics);
            h.conn_changed(conn);
            maybe_gc(h, conn);
            run_client_action(h, ctx, cid, action);
        }

        ClientEv::ClientThinkDone(cid) => {
            let p = h.parts();
            let action = p.driver.clients[cid.0 as usize].on_think_done(now, p.metrics);
            run_client_action(h, ctx, cid, action);
        }

        ClientEv::ClientTimeout(cid) => {
            h.observe(now, ClientObs::Timeout { cid });
            let rt = &mut h.parts().driver.rt[cid.0 as usize];
            rt.timeout_ev = None;
            if let Some(conn) = rt.conn.take() {
                h.close_client_side(ctx, conn, CloseKind::ClientAbort);
            }
            let p = h.parts();
            let action = p.driver.clients[cid.0 as usize].on_timeout(now, p.files, p.metrics);
            run_client_action(h, ctx, cid, action);
        }

        ClientEv::LinkTick(li) => {
            h.parts().flows.ticks[li] = None;
            // Complete every flow due by now (ties are common when several
            // replies share the PS clock).
            while let Some(done) = h.parts().flows.complete_due(now, li) {
                if let Some(reply) = done {
                    h.reply_done(ctx, reply);
                }
            }
            h.parts().flows.resched(ctx, li);
        }
    }
}

/// Hand a delivered reply to its client and run whatever it does next.
pub(crate) fn deliver_reply<H: ClientHost>(
    h: &mut H,
    ctx: &mut Ctx<'_, H::Ev>,
    cid: ClientId,
    body_bytes: u64,
) {
    let p = h.parts();
    p.driver.disarm_timeout(ctx, cid);
    let client = &mut p.driver.clients[cid.0 as usize];
    match client.on_reply(ctx.now(), body_bytes, p.files, p.metrics) {
        // More replies of the same burst still outstanding.
        None => p.driver.arm_timeout(ctx, cid),
        Some(action) => run_client_action(h, ctx, cid, action),
    }
}

/// Drop `conn`'s record once nothing references it any more.
pub(crate) fn maybe_gc<H: ClientHost>(h: &mut H, conn: ConnId) {
    let p = h.parts();
    let Some(rec) = p.conns.get(&conn) else {
        return;
    };
    let closed = matches!(rec.net().state, ConnState::Closed(_));
    if closed && rec.unreferenced() && !p.driver.is_current(rec.client(), conn) {
        let rec = p.conns.remove(&conn).expect("present");
        h.dropped(rec);
    }
}

/// The client of `conn` if `conn` is still connecting and its client's
/// current connection; otherwise the event is stale.
fn connecting<H: ClientHost>(h: &mut H, conn: ConnId) -> Option<ClientId> {
    let p = h.parts();
    let cid = p
        .conns
        .get(&conn)
        .filter(|r| matches!(r.net().state, ConnState::Connecting))
        .map(|r| r.client())
        .filter(|&c| p.driver.is_current(c, conn));
    if cid.is_none() {
        *p.stale_events += 1;
    }
    cid
}

/// Open a new connection for `cid` and fire its SYN.
fn connect<H: ClientHost>(h: &mut H, ctx: &mut Ctx<'_, H::Ev>, cid: ClientId) {
    let conn = h.open_conn(ctx.now(), cid);
    let driver = h.parts().driver;
    driver.rt[cid.0 as usize].conn = Some(conn);
    driver.arm_timeout(ctx, cid);
    // Handshake packets consume link bandwidth.
    let bytes = driver.handshake_bytes;
    let li = h.link(conn);
    h.parts().flows.start_overhead_flow(ctx, li, bytes);
    let lat = h.latency(conn);
    ctx.schedule_in(lat, H::syn(conn));
}

/// Execute a client action returned by the state machine.
fn run_client_action<H: ClientHost>(
    h: &mut H,
    ctx: &mut Ctx<'_, H::Ev>,
    cid: ClientId,
    action: ClientAction,
) {
    match action {
        ClientAction::Connect => connect(h, ctx, cid),
        ClientAction::ConnectAfter(d) => {
            ctx.schedule_in(d, ClientEv::ClientConnect(cid).into());
        }
        ClientAction::SendBurst(files) => {
            let driver = h.parts().driver;
            let conn = driver.rt[cid.0 as usize]
                .conn
                .expect("burst with no connection");
            driver.arm_timeout(ctx, cid);
            let requests = files.len();
            h.observe(ctx.now(), ClientObs::Burst { conn, requests });
            let mut lat = h.latency(conn);
            // Slow-loris window: afflicted clients trickle their request
            // bytes, so the burst takes seconds to fully arrive. The
            // stagger is a pure function of the client id, so determinism
            // is preserved.
            let loris = h.loris_clients(conn);
            if loris > 0 && cid.0 < loris {
                lat += SimDuration::from_millis(2_000 + (cid.0 as u64 % 7) * 250);
            }
            ctx.schedule_in(lat, H::burst(conn, files));
        }
        ClientAction::Think(d) => {
            ctx.schedule_in(d, ClientEv::ClientThinkDone(cid).into());
        }
        ClientAction::CloseThenConnect => {
            if let Some(conn) = h.parts().driver.rt[cid.0 as usize].conn.take() {
                h.close_client_side(ctx, conn, CloseKind::ClientFin);
            }
            connect(h, ctx, cid);
        }
    }
}
