//! Soft state per proxy, not per query.
//!
//! A proxy keeps its standing queries alive with **one lease roster per
//! renewal round** — holders renew what they have and pull what they lack —
//! and a window root answers with **one results message per (proxy,
//! window)**.  Three layers of evidence:
//!
//! 1. the renewal schedule, on [`Proxy`] alone (no simulator): whatever
//!    the submissions, finishes and progress, every live standing query is
//!    named often enough for its lease, by one timer chain — or by a
//!    submission that takes the round early, only inside the window the
//!    backoff draws from;
//! 2. the protocol on a cluster: one tree broadcast per proxy per round,
//!    reaching every other node once in n − 1 messages, and nothing else;
//!    a round riding a plan submitted inside its window; churn repair
//!    through one pull per proxy; lapse by silence when a proxy stops, at
//!    each holder exactly one lease (plus the durable grace) after the last
//!    roster it received;
//! 3. the result path: a root tick sends at most one message per (proxy,
//!    window) — one chunk its members' runs partition, the window's bounds
//!    in the header only — and bundling is invisible in what tenants
//!    receive.
//!
//! The cluster tests watch the wire through [`Tap`], a node program that
//! wraps a `PierNode` and journals what each handler invocation sends.

use pier::cq::DurableStore;
use pier::dht::{make_ring_refs, BroadcastId, DhtMessage, Id, NodeRef};
use pier::qp::{
    sqlish, CqSpec, Dissemination, PierConfig, PierMsg, PierNode, PierOut, PierTimer, Proxy,
    QpObject, QueryPlan, RenewalRound, SpanRecord, TelemetryConfig, Tuple, Value, WindowBundle,
};
use pier::runtime::{Action, Context, NodeAddr, Program, Rng64, SimConfig, SimTime, Simulator};
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

mod common;
use common::seeded;

const SEC: u64 = 1_000_000;

fn standing_plan(query_id: u64, renew_every: u64, life: u64, keyed: bool) -> QueryPlan {
    let sql = "SELECT src, COUNT(*) FROM packets GROUP BY src WINDOW 1s SLIDE 1s";
    let mut plan = sqlish::compile(sql, NodeAddr(0), life).expect("compiles");
    plan.query_id = query_id;
    plan.cq = Some(CqSpec::renewing_every(renew_every));
    if keyed {
        plan.dissemination = Dissemination::ByKey {
            namespace: "packets".into(),
            key: "k".into(),
        };
    }
    plan
}

// ----- (i) the schedule, on `Proxy` alone ------------------------------------

/// One standing query of a schedule run.
#[derive(Debug)]
struct Live {
    renew_every: u64,
    ends_at: SimTime,
    keyed: bool,
    /// When a holder's lease was last extended: the submission, then every
    /// round that named the query.
    named_at: SimTime,
}

impl Live {
    /// The longest the proxy may leave this query unnamed.
    fn max_gap(&self) -> u64 {
        3 * self.renew_every - self.renew_every / 2
    }
}

/// Hand `proxy` one inserted row for `query_id`, as a window root would
/// report it; the rows that reach the client.
fn one_row(proxy: &mut Proxy, query_id: u64) -> usize {
    let mut bundle = WindowBundle::default();
    let row = Tuple::new("r", vec![("v", Value::Int(1))]);
    bundle.push(query_id, vec![], vec![row], None);
    let outs = proxy.receive_window(0, SEC, &bundle.rows, &bundle.members);
    outs.expect("well-formed").len()
}

/// The ceiling `d` a round's delay was drawn under (uniform in `[d/2, d)`):
/// the tightest live query's bounds, `attempt` escalations up.
fn ceiling(live: &BTreeMap<u64, Live>, attempt: u32) -> u64 {
    let base = live.values().map(|q| q.renew_every).min();
    let cap = live.values().map(Live::max_gap).min();
    let base = base.expect("a round names a standing query");
    let factor = 1u64.checked_shl(attempt).unwrap_or(u64::MAX);
    base.saturating_mul(factor)
        .min(cap.expect("and so bounds it"))
}

/// What every round, timer-driven or riding a plan, must hold: it names
/// exactly the live queries — the broadcast ones on its ascending roster,
/// the others re-sent with their remaining lifetime — each inside its
/// lease since it was last named.
fn check_round(
    round: &RenewalRound,
    now: SimTime,
    live: &mut BTreeMap<u64, Live>,
    proxy: &Proxy,
) -> Result<(), TestCaseError> {
    prop_assert!(
        round.roster.windows(2).all(|w| w[0] < w[1]),
        "ascending, duplicate-free: {:?}",
        round.roster
    );
    let named: BTreeSet<u64> = round.roster.iter().copied().collect();
    let resent: BTreeMap<u64, &QueryPlan> = round.resend.iter().map(|p| (p.query_id, p)).collect();
    prop_assert_eq!(resent.len(), round.resend.len());
    prop_assert_eq!(
        named.len() + resent.len(),
        live.len(),
        "only the live are named"
    );
    for (id, q) in live.iter_mut() {
        prop_assert_eq!(named.contains(id), !q.keyed, "query {}", id);
        if let Some(plan) = resent.get(id) {
            prop_assert_eq!(plan.timeout, q.ends_at - now, "the remaining lifetime");
        }
        prop_assert!(
            now - q.named_at < q.max_gap(),
            "query {id} (renew {}) went {} unnamed",
            q.renew_every,
            now - q.named_at
        );
        q.named_at = now;
    }
    // A pull is served with the remaining lifetime, too.
    for plan in proxy.plans_for(&round.roster, now) {
        prop_assert_eq!(plan.timeout, live[&plan.query_id].ends_at - now);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Drive a `Proxy` the way the runtime does — timers are never
    /// cancelled, every one ever armed fires — through random submissions
    /// and finishes with arbitrary per-round progress.  A broadcast
    /// submission offers to take the pending round with it: taken exactly
    /// when the instant lies in `[last round + d/2, due)`, so the gap it
    /// leaves is one the backoff could have drawn.
    #[test]
    fn every_live_standing_query_is_named_inside_its_lease(
        submissions in proptest::collection::vec(
            ((0u64..40 * SEC, 1u64..31), (2u64..150, any::<bool>())),
            1..14,
        ),
        progress in proptest::collection::vec(any::<bool>(), 1..12),
        rng_seed: u64,
    ) {
        let mut rng = Rng64::new(seeded(rng_seed));
        let mut proxy = Proxy::default();
        let mut live: BTreeMap<u64, Live> = BTreeMap::new();
        let mut timers: Vec<SimTime> = Vec::new();
        let mut now = 0;
        let mut submits = Vec::new();
        for (i, ((gap, renew_secs), (life_secs, keyed))) in submissions.into_iter().enumerate() {
            now += gap;
            // One in four is keyed: re-sent whole, never on the roster.
            let keyed = keyed && i % 2 == 0;
            submits.push((now, i as u64 + 1, renew_secs * SEC, life_secs * SEC, keyed));
        }
        submits.reverse();
        let mut rounds = 0usize;
        // The last round's instant and the ceiling its delay was drawn under.
        let mut last: Option<(SimTime, u64)> = None;
        loop {
            // The earliest of: next finish, next submission, next timer.
            let submit_at = submits.last().map(|s| s.0);
            let finish = live.iter().map(|(id, q)| (q.ends_at, *id)).min();
            let timer = timers.iter().copied().min();
            let next = [finish.map(|f| f.0), submit_at, timer];
            let Some(at) = next.into_iter().flatten().min() else {
                break;
            };
            now = at;
            if let Some((_, id)) = finish.filter(|f| f.0 == now) {
                let q = live.remove(&id).expect("live");
                prop_assert!(
                    now - q.named_at < q.max_gap(),
                    "query {id} ended after {} unnamed", now - q.named_at
                );
                prop_assert!(proxy.done(id));
                prop_assert!(!proxy.done(id), "done twice");
                prop_assert_eq!(
                    proxy.next_round_at().is_some(),
                    !live.is_empty(),
                    "the clock is armed exactly while a standing query lives"
                );
                if live.is_empty() {
                    last = None;
                }
            } else if submit_at == Some(now) {
                let (_, id, renew_every, life, keyed) = submits.pop().expect("checked");
                let was_due = proxy.next_round_at();
                let arm = proxy.submit(&standing_plan(id, renew_every, life, keyed), now);
                let due = proxy.next_round_at().expect("a standing submit arms the clock");
                prop_assert!(due <= now + renew_every, "a first round within renew_every");
                match arm {
                    Some(delay) => {
                        prop_assert_eq!(due, now + delay);
                        prop_assert!(was_due.is_none_or(|at| at > due), "armed for no reason");
                        timers.push(due);
                    }
                    None => prop_assert_eq!(Some(due), was_due),
                }
                let named_at = now;
                let ends_at = now + life;
                live.insert(id, Live { renew_every, ends_at, keyed, named_at });
                // A broadcast plan offers the pending round a ride.
                let open = last.is_some_and(|(at, d)| now >= at + d / 2 && now < due);
                let ride = if keyed { None } else { proxy.open_round(now, &mut rng) };
                prop_assert_eq!(ride.is_some(), open && !keyed, "rides exactly inside the window");
                if let Some(round) = ride {
                    let delay = round.next_delay.expect("a ride is a round");
                    rounds += 1;
                    prop_assert_eq!(proxy.next_round_at(), Some(now + delay));
                    timers.push(now + delay);
                    check_round(&round, now, &mut live, &proxy)?;
                    prop_assert!(round.roster.contains(&id), "the plan's query on its roster");
                    let d = ceiling(&live, round.attempt);
                    prop_assert!((d / 2..d).contains(&delay), "{delay} drawn from [d/2, d)");
                    last = Some((now, d));
                }
                // Its stream has started: from here on, progress is what
                // the rounds below say it is.
                prop_assert_eq!(one_row(&mut proxy, id), 1);
            } else {
                let at = timers.iter().position(|t| *t == now).expect("checked");
                timers.swap_remove(at);
                let due = proxy.next_round_at();
                // Arbitrary progress: some rounds see fresh rows, some none.
                if progress[rounds % progress.len()] {
                    if let Some(&id) = live.keys().next() {
                        prop_assert_eq!(one_row(&mut proxy, id), 1);
                    }
                }
                let round = proxy.renew_round(now, &mut rng);
                let Some(delay) = round.next_delay else {
                    // A stale timer: the clock was disarmed, or re-armed
                    // for an earlier round, after this one was set.
                    prop_assert!(due.is_none_or(|d| now < d), "a due round must run");
                    prop_assert!(round.roster.is_empty() && round.resend.is_empty());
                    continue;
                };
                rounds += 1;
                prop_assert_eq!(due, Some(now), "only the due timer runs a round");
                prop_assert_eq!(proxy.next_round_at(), Some(now + delay));
                timers.push(now + delay);
                check_round(&round, now, &mut live, &proxy)?;
                let d = ceiling(&live, round.attempt);
                prop_assert!((d / 2..d).contains(&delay), "{delay} drawn from [d/2, d), d = {d}");
                last = Some((now, d));
            }
        }
        prop_assert!(proxy.is_empty() && proxy.next_round_at().is_none());
    }
}

#[test]
fn an_id_submitted_again_starts_over() {
    let plan = standing_plan(7, 5 * SEC, 60 * SEC, false);
    let mut proxy = Proxy::default();
    assert_eq!(proxy.submit(&plan, 0), Some(5 * SEC));
    assert_eq!(proxy.submit(&plan, SEC), Some(5 * SEC), "a fresh clock");
    assert_eq!((proxy.len(), proxy.next_round_at()), (1, Some(6 * SEC)));
    let stale = proxy.renew_round(5 * SEC, &mut Rng64::new(1));
    assert!(stale.next_delay.is_none() && stale.roster.is_empty());
    let plans = proxy.plans_for(&[7], 2 * SEC);
    assert_eq!(
        plans[0].timeout,
        59 * SEC,
        "the second submission's lifetime"
    );
    assert!(proxy.done(7));
    assert_eq!(proxy.next_round_at(), None, "one entry, one standing query");
}

// ----- the wire tap -----------------------------------------------------------

/// What the tests want to know about a message.
#[derive(Debug, Clone, PartialEq)]
enum Wire {
    /// A tree broadcast hop carrying a standing query alone: a whole plan,
    /// or a member form.
    TreePlan,
    /// A hop of broadcast `id` carrying `proxy`'s roster, and the plan the
    /// round rides on, if it does.
    TreeRoster {
        id: BroadcastId,
        proxy: NodeAddr,
        queries: Vec<u64>,
        ride: Option<u64>,
    },
    PlanRequest(Vec<u64>),
    Plans(Vec<u64>),
    /// `(window_start, window_end)`, the members named, and whether the
    /// payload is one chunk that the members' runs partition and that says
    /// nothing of the window (the header does).
    WindowResults((SimTime, SimTime), Vec<u64>, bool),
}

fn classify(msg: &PierMsg) -> Option<Wire> {
    let tree = |id: &BroadcastId, payload: &QpObject| match payload {
        QpObject::Plan(_) | QpObject::Member(_) => Some(Wire::TreePlan),
        QpObject::Renew {
            proxy,
            queries,
            plan,
        } => Some(Wire::TreeRoster {
            id: *id,
            proxy: *proxy,
            queries: queries.clone(),
            ride: plan.as_ref().map(|p| p.query_id()),
        }),
        _ => None,
    };
    match msg {
        PierMsg::Dht(
            DhtMessage::TreeBroadcastUp { id, payload }
            | DhtMessage::TreeBroadcastDown { id, payload },
        ) => tree(id, payload),
        PierMsg::PlanRequest { queries } => Some(Wire::PlanRequest(queries.clone())),
        PierMsg::Plans { plans } => Some(Wire::Plans(plans.iter().map(|p| p.query_id).collect())),
        PierMsg::WindowResults {
            window_start,
            window_end,
            rows,
            members,
        } => {
            let named: u32 = members.iter().map(|m| m.retracts + m.inserts).sum();
            let [chunk] = rows.chunks() else {
                panic!("one chunk per message, got {}", rows.chunks().len());
            };
            let columns = chunk.schema().columns();
            Some(Wire::WindowResults(
                (*window_start, *window_end),
                members.iter().map(|m| m.query_id).collect(),
                named as usize == rows.len() && columns == ["src", "count"],
            ))
        }
        _ => None,
    }
}

/// One journalled send.
#[derive(Debug, Clone)]
struct Sent {
    at: SimTime,
    from: NodeAddr,
    to: NodeAddr,
    /// Ordinal of the handler invocation that sent it (cluster-wide).
    invocation: u64,
    /// The invocation was a timer handler.
    on_timer: bool,
    wire: Wire,
}

#[derive(Debug, Default)]
struct Journal {
    sent: Vec<Sent>,
    invocations: u64,
    /// Every roster hop delivered: when, where, and the queries it named.
    rosters: Vec<(SimTime, NodeAddr, Vec<u64>)>,
}

type Ctx = Context<PierMsg, PierTimer, PierOut>;

/// A `PierNode` whose sends are journalled, handler invocation by handler
/// invocation.
struct Tap {
    node: PierNode,
    journal: Rc<RefCell<Journal>>,
}

impl Tap {
    fn run(&mut self, ctx: &mut Ctx, on_timer: bool, f: impl FnOnce(&mut PierNode, &mut Ctx)) {
        let mut inner = Context::new(ctx.now(), ctx.me());
        f(&mut self.node, &mut inner);
        let mut journal = self.journal.borrow_mut();
        journal.invocations += 1;
        let invocation = journal.invocations;
        for action in inner.into_actions() {
            match action {
                Action::Send { to, msg } => {
                    if let Some(wire) = classify(&msg) {
                        journal.sent.push(Sent {
                            at: ctx.now(),
                            from: ctx.me(),
                            to,
                            invocation,
                            on_timer,
                            wire,
                        });
                    }
                    ctx.send(to, msg);
                }
                Action::SetTimer { delay, timer } => ctx.set_timer(delay, timer),
                Action::Output(out) => ctx.output(out),
            }
        }
    }
}

impl Program for Tap {
    type Msg = PierMsg;
    type Timer = PierTimer;
    type Out = PierOut;

    fn on_start(&mut self, ctx: &mut Ctx) {
        self.run(ctx, false, Program::on_start);
    }

    fn on_message(&mut self, ctx: &mut Ctx, from: NodeAddr, msg: PierMsg) {
        if let Some(Wire::TreeRoster { queries, .. }) = classify(&msg) {
            let arrival = (ctx.now(), ctx.me(), queries);
            self.journal.borrow_mut().rosters.push(arrival);
        }
        self.run(ctx, false, |node, ctx| node.on_message(ctx, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Ctx, timer: PierTimer) {
        self.run(ctx, true, |node, ctx| node.on_timer(ctx, timer));
    }

    fn on_stop(&mut self, ctx: &mut Ctx) {
        self.run(ctx, false, Program::on_stop);
    }
}

/// A LAN cluster of tapped nodes on a converged ring, its distribution
/// tree warm.
struct TapCluster {
    sim: Simulator<Tap>,
    refs: Vec<NodeRef>,
    pier: PierConfig,
    journal: Rc<RefCell<Journal>>,
}

impl TapCluster {
    fn start(nodes: usize, seed: u64, mut pier: PierConfig) -> TapCluster {
        pier.telemetry = TelemetryConfig::enabled();
        pier.overlay.router.liveness_timeout = 3 * SEC;
        let refs = make_ring_refs(nodes, seed);
        let journal = Rc::new(RefCell::new(Journal::default()));
        let mut sim = Simulator::new(SimConfig::lan(seed));
        for r in &refs {
            let mut own = pier.clone();
            // Each node its own "disk", as on separate machines.
            if own.durable.is_some() {
                own.durable = Some(DurableStore::new());
            }
            sim.add_node(Tap {
                node: PierNode::with_static_ring(*r, &refs, own),
                journal: Rc::clone(&journal),
            });
        }
        sim.run_for(6 * SEC);
        TapCluster {
            sim,
            refs,
            pier,
            journal,
        }
    }

    fn submit(&mut self, proxy: NodeAddr, plan: QueryPlan) -> u64 {
        let mut query_id = 0;
        self.sim.invoke(proxy, |tap, ctx| {
            tap.run(ctx, false, |node, ctx| {
                query_id = node.submit_query(ctx, plan);
            });
        });
        query_id
    }

    /// Boot one more node; it joins the distribution tree on its own.
    fn join(&mut self, id: u64) -> NodeAddr {
        let me = NodeRef {
            id: Id(id),
            addr: NodeAddr(self.sim.node_count() as u32),
        };
        let mut ring = self.refs.clone();
        ring.push(me);
        self.sim.add_node(Tap {
            node: PierNode::with_static_ring(me, &ring, self.pier.clone()),
            journal: Rc::clone(&self.journal),
        })
    }

    fn node(&self, addr: NodeAddr) -> &PierNode {
        &self.sim.node(addr).expect("alive").node
    }

    fn counter(&self, addr: NodeAddr, name: &str) -> u64 {
        self.node(addr).telemetry().counter(name)
    }

    /// Forget what was sent so far.
    fn clear(&mut self) {
        self.journal.borrow_mut().sent.clear();
    }

    fn sent(&self) -> Vec<Sent> {
        self.journal.borrow().sent.clone()
    }
}

// ----- (ii) the roster protocol on a cluster ----------------------------------

/// 40 standing broadcast queries, `EVERY 5s`, on proxies 0, 1 and 2 of a
/// 12-node cluster: the queries of each proxy, and the cluster.
fn forty_on_three(seed: u64) -> (TapCluster, BTreeMap<NodeAddr, Vec<u64>>) {
    let mut cluster = TapCluster::start(12, seed, PierConfig::default());
    let mut owned: BTreeMap<NodeAddr, Vec<u64>> = BTreeMap::new();
    let sql = "SELECT src, COUNT(*) FROM packets GROUP BY src WINDOW 2s SLIDE 1s EVERY 5s";
    for i in 0..40 {
        let proxy = cluster.refs[i % 3].addr;
        let plan = sqlish::compile(sql, proxy, 400 * SEC).expect("compiles");
        let id = cluster.submit(proxy, plan);
        owned.entry(proxy).or_default().push(id);
        // Spread the submissions so a round finds queries of every age.
        cluster.sim.run_for(SEC / 20);
    }
    cluster.sim.run_for(SEC);
    for addr in cluster.sim.alive_nodes() {
        assert_eq!(cluster.node(addr).installed_queries(), 40, "{addr}");
    }
    (cluster, owned)
}

#[test]
fn one_tree_broadcast_per_proxy_per_round_keeps_every_lease_live() {
    let (mut cluster, owned) = forty_on_three(seeded(0x20));
    cluster.clear();
    let begin = cluster.sim.now();
    cluster.sim.run_for(50 * SEC); // ten periods
    let nodes = cluster.sim.alive_nodes();
    for addr in &nodes {
        let node = cluster.node(*addr);
        assert_eq!(node.installed_queries(), 40, "{addr} dropped a query");
        for id in owned.values().flatten() {
            let renewals = node.cq_diagnostics(*id).expect("installed").lease_renewals;
            assert!((9..=21).contains(&renewals), "{addr} q{id}: {renewals}");
        }
        assert_eq!(
            cluster.counter(*addr, "cq.plan_pulls"),
            0,
            "no churn, no pull"
        );
    }

    let sent = cluster.sent();
    assert!(
        sent.iter()
            .all(|s| matches!(s.wire, Wire::TreeRoster { .. })),
        "renewal puts rosters on the wire and nothing else — no plan, no pull"
    );
    for (proxy, ids) in &owned {
        let rounds = rounds_of(&sent, *proxy);
        assert_eq!(
            rounds.len(),
            cluster.counter(*proxy, "cq.roster_rounds") as usize,
            "one broadcast per round of {proxy}"
        );
        assert!(
            (10..=20).contains(&rounds.len()),
            "{} rounds in ten periods",
            rounds.len()
        );
        assert_gaps_inside_the_draw(&rounds, 5 * SEC);
        for round in rounds.values() {
            // A round starts in the proxy's timer handler, …
            assert!(round[0].on_timer, "{proxy}'s round starts on its timer");
            // …every roster names exactly the proxy's queries, ascending…
            for hop in round {
                let Wire::TreeRoster { queries, ride, .. } = &hop.wire else {
                    unreachable!()
                };
                assert_eq!(queries, ids, "{proxy}'s roster");
                assert!(queries.windows(2).all(|w| w[0] < w[1]));
                assert_eq!(*ride, None, "no submission, no ride");
            }
            // …and reaches every other node once (rounds still in flight
            // at the cut are left out).
            if round[0].at + SEC <= begin + 50 * SEC {
                assert_reaches_every_other_node_once(round, *proxy, &nodes);
            }
        }
    }
}

#[test]
fn a_submission_inside_the_open_window_carries_the_round() {
    let mut cluster = TapCluster::start(8, seeded(0x25), PierConfig::default());
    let proxy = cluster.refs[0].addr;
    let sql = "SELECT src, COUNT(*) FROM packets GROUP BY src WINDOW 2s SLIDE 1s EVERY 5s";
    let plan = || sqlish::compile(sql, proxy, 400 * SEC).expect("compiles");
    let mut ids: Vec<u64> = (0..2).map(|_| cluster.submit(proxy, plan())).collect();
    cluster.sim.run_for(SEC);
    cluster.clear();
    let rounds_before = cluster.counter(proxy, "cq.roster_rounds");
    // Half a ceiling (2.5 s) after a round, with the next one not started
    // yet, the round is open: a submission then takes it along.
    let rider = loop {
        cluster.sim.run_for(SEC / 10);
        let now = cluster.sim.now();
        assert!(now < 60 * SEC, "never landed inside an open window");
        let sent = cluster.sent();
        let last = rounds_of(&sent, proxy)
            .values()
            .last()
            .map(|hops| hops[0].at);
        if last.is_some_and(|at| now >= at + 5 * SEC / 2) {
            break cluster.submit(proxy, plan());
        }
    };
    ids.push(rider);
    cluster.sim.run_for(12 * SEC);

    let sent = cluster.sent();
    assert!(
        !sent.iter().any(|s| s.wire == Wire::TreePlan),
        "the plan travels with the roster, not alone"
    );
    let rounds = rounds_of(&sent, proxy);
    assert_eq!(
        rounds.len() as u64,
        cluster.counter(proxy, "cq.roster_rounds") - rounds_before
    );
    assert_eq!(cluster.counter(proxy, "cq.roster_rides"), 1);
    let rides: Vec<&Vec<&Sent>> = rounds
        .values()
        .filter(|hops| {
            hops.iter()
                .all(|s| matches!(s.wire, Wire::TreeRoster { ride: Some(q), .. } if q == rider))
        })
        .collect();
    let [ride] = rides[..] else {
        panic!("one round rides the plan, whole: {rides:?}");
    };
    assert!(!ride[0].on_timer, "the round left with the submission");
    let Wire::TreeRoster { queries, .. } = &ride[0].wire else {
        unreachable!()
    };
    assert_eq!(queries, &ids, "the roster names the riding plan too");
    let nodes = cluster.sim.alive_nodes();
    assert_reaches_every_other_node_once(ride, proxy, &nodes);
    // The timer armed for the round's old instant sends nothing: no
    // roster-only broadcast follows for that round.
    assert_gaps_inside_the_draw(&rounds, 5 * SEC);
    for addr in &nodes {
        assert_eq!(cluster.node(*addr).installed_queries(), 3, "{addr}");
        assert_eq!(
            cluster.counter(*addr, "cq.plan_pulls"),
            0,
            "{addr} read the roster before installing the plan"
        );
    }
}

/// `proxy`'s roster rounds in `sent`: every hop of each, by broadcast, in
/// the order sent.
fn rounds_of(sent: &[Sent], proxy: NodeAddr) -> BTreeMap<BroadcastId, Vec<&Sent>> {
    let mut rounds: BTreeMap<BroadcastId, Vec<&Sent>> = BTreeMap::new();
    for s in sent {
        if let Wire::TreeRoster { id, proxy: p, .. } = &s.wire {
            if *p == proxy {
                assert_eq!(id.origin, proxy, "a roster leaves from its proxy");
                rounds.entry(*id).or_default().push(s);
            }
        }
    }
    rounds
}

/// One broadcast crosses the tree in n − 1 messages: every node but its
/// origin receives it exactly once.
fn assert_reaches_every_other_node_once(hops: &[&Sent], origin: NodeAddr, nodes: &[NodeAddr]) {
    let mut reached: Vec<NodeAddr> = hops.iter().map(|s| s.to).collect();
    reached.sort();
    let expected: Vec<NodeAddr> = nodes.iter().copied().filter(|n| *n != origin).collect();
    assert_eq!(
        reached, expected,
        "broadcast from {origin} at {}",
        hops[0].at
    );
}

/// Consecutive rounds are `[d/2, d)` apart: a ride leaves a gap the
/// backoff could have drawn, and nothing else starts a round.
fn assert_gaps_inside_the_draw(rounds: &BTreeMap<BroadcastId, Vec<&Sent>>, d: SimTime) {
    let starts: Vec<SimTime> = rounds.values().map(|hops| hops[0].at).collect();
    for gap in starts.windows(2).map(|w| w[1] - w[0]) {
        assert!((d / 2..d).contains(&gap), "gap {gap}");
    }
}

#[test]
fn a_joined_node_pulls_each_proxys_plans_once_and_a_stopped_proxys_queries_lapse() {
    let (mut cluster, owned) = forty_on_three(seeded(0x21));
    cluster.sim.run_for(7 * SEC);
    cluster.clear();
    let joined = cluster.join(seeded(0x5EED_0001));
    // Half a tree-refresh interval to join the tree, one round of every
    // proxy, one round trip.
    cluster.sim.run_for(5 * SEC + 5 * SEC + SEC / 2);
    assert_eq!(cluster.node(joined).installed_queries(), 40);
    cluster.sim.run_for(10 * SEC);
    let sent = cluster.sent();
    let pulls: BTreeMap<NodeAddr, &Vec<u64>> = sent
        .iter()
        .filter_map(|s| match &s.wire {
            Wire::PlanRequest(ids) => Some((s.from, s.to, ids)),
            _ => None,
        })
        .map(|(from, to, ids)| {
            assert_eq!(from, joined, "only the new node lacks anything");
            (to, ids)
        })
        .collect();
    let replies: Vec<(NodeAddr, &Vec<u64>)> = sent
        .iter()
        .filter_map(|s| match &s.wire {
            Wire::Plans(ids) => Some((s.from, s.to, ids)),
            _ => None,
        })
        .map(|(from, to, ids)| {
            assert_eq!(to, joined);
            (from, ids)
        })
        .collect();
    assert_eq!(
        cluster.counter(joined, "cq.plan_pulls"),
        3,
        "one pull per proxy"
    );
    assert_eq!(replies.len(), 3, "one reply per proxy");
    for (proxy, ids) in &owned {
        assert_eq!(pulls[proxy], ids, "the pull names all of {proxy}'s queries");
        assert!(
            replies.contains(&(*proxy, ids)),
            "and {proxy} serves them all"
        );
        assert_eq!(cluster.counter(*proxy, "cq.plans_served"), ids.len() as u64);
    }
    assert!(
        !sent.iter().any(|s| s.wire == Wire::TreePlan),
        "no plan is re-broadcast"
    );

    // Stop proxy 0: nobody tears its queries down, they lapse.
    let stopped = cluster.refs[0].addr;
    let lost = owned[&stopped].len();
    let now = cluster.sim.now();
    cluster.sim.fail_node_at(stopped, now);
    cluster.sim.run_for(8 * SEC);
    for addr in cluster.sim.alive_nodes() {
        assert_eq!(
            cluster.node(addr).installed_queries(),
            40,
            "{addr}: the leases (15 s) have not run out yet"
        );
    }
    // Past the lease — and past whatever the failure did to the tree:
    // a node that lost the other proxies' rosters for a while has pulled
    // their queries back.
    cluster.sim.run_for(32 * SEC);
    for addr in cluster.sim.alive_nodes() {
        let node = cluster.node(addr);
        assert_eq!(node.installed_queries(), 40 - lost, "{addr}");
        for id in &owned[&stopped] {
            assert!(
                node.cq_diagnostics(*id).is_none(),
                "{addr} still runs q{id}"
            );
        }
    }
}

/// Stop a proxy of one standing query (lease 15 s) and watch each holder
/// drop it exactly one lease — plus the grace window when window state is
/// durable — after the last roster that reached it: still running a
/// microsecond before, gone at the instant.
fn a_stopped_proxys_query_lapses_at_the_instant(durable: bool) {
    let mut pier = PierConfig::default();
    if durable {
        pier.durable = Some(DurableStore::new());
    }
    let mut cluster = TapCluster::start(6, seeded(0x26), pier);
    let proxy = cluster.refs[0].addr;
    let sql = "SELECT src, COUNT(*) FROM packets GROUP BY src WINDOW 2s SLIDE 1s EVERY 5s";
    let plan = sqlish::compile(sql, proxy, 400 * SEC).expect("compiles");
    let id = cluster.submit(proxy, plan);
    cluster.sim.run_for(12 * SEC);
    let stopped = cluster.sim.now();
    cluster.sim.fail_node_at(proxy, stopped);
    // Hops already in flight still land and renew.
    cluster.sim.run_for(SEC);
    let lapse = (if durable { 2 } else { 1 }) * 15 * SEC;
    let mut checks: Vec<(SimTime, NodeAddr, bool)> = Vec::new();
    for holder in cluster.sim.alive_nodes() {
        let journal = cluster.journal.borrow();
        let named = journal
            .rosters
            .iter()
            .filter(|(_, to, queries)| *to == holder && queries.contains(&id));
        let last = named.map(|(at, _, _)| *at).max();
        let last = last.unwrap_or_else(|| panic!("{holder} never saw a roster"));
        assert!(last < stopped + SEC);
        checks.push((last + lapse - 1, holder, true));
        checks.push((last + lapse, holder, false));
    }
    checks.sort();
    for (at, holder, running) in checks {
        cluster.sim.run_until(at);
        let installed = cluster.node(holder).cq_diagnostics(id).is_some();
        assert_eq!(installed, running, "{holder} at {at}");
    }
}

#[test]
fn a_stopped_proxys_query_lapses_one_lease_after_the_last_roster() {
    a_stopped_proxys_query_lapses_at_the_instant(false);
}

#[test]
fn a_durable_holder_parks_the_lapsed_query_through_the_grace_window() {
    a_stopped_proxys_query_lapses_at_the_instant(true);
}

/// A plan that arrives again is a lease renewal for a standing query, and
/// nothing for a one-shot aggregate, which lives out its timeout and holds
/// no lease, though it runs in a window engine too.
#[test]
fn a_plan_arriving_again_renews_a_standing_query_and_not_a_one_shot() {
    let mut cluster = TapCluster::start(8, seeded(0x23), PierConfig::default());
    let proxy = cluster.refs[0].addr;
    let holder = cluster.refs[3].addr;
    let one_shot = "SELECT src, COUNT(*) FROM packets GROUP BY src";
    let standing = format!("{one_shot} WINDOW 1s");
    for (sql, renewals) in [(one_shot, 0), (standing.as_str(), 1)] {
        let mut plan = sqlish::compile(sql, proxy, 30 * SEC).expect("compiles");
        plan.query_id = cluster.submit(proxy, plan.clone());
        cluster.sim.run_for(SEC);
        assert!(cluster.node(holder).cq_diagnostics(plan.query_id).is_some());
        let before = cluster.counter(holder, "cq.lease_renewals");
        cluster.sim.invoke(holder, |tap, ctx| {
            let msg = PierMsg::Plans { plans: vec![plan] };
            tap.run(ctx, false, |node, ctx| node.on_message(ctx, proxy, msg));
        });
        let renewed = cluster.counter(holder, "cq.lease_renewals") - before;
        assert_eq!(renewed, renewals, "{sql}");
    }
}

#[test]
fn a_late_installer_ends_with_the_proxy() {
    let mut cluster = TapCluster::start(8, seeded(0x22), PierConfig::default());
    let proxy = cluster.refs[0].addr;
    let sql = "SELECT src, COUNT(*) FROM packets GROUP BY src WINDOW 2s SLIDE 1s EVERY 5s";
    let plan = sqlish::compile(sql, proxy, 30 * SEC).expect("compiles");
    let submitted = cluster.sim.now();
    let id = cluster.submit(proxy, plan);
    // Booted 14 s into the query, in the distribution tree 5 s later, the
    // new node meets its first roster — and pulls — some 20 s into it.
    cluster.sim.run_until(submitted + 14 * SEC);
    let joined = cluster.join(seeded(0x5EED_0002));
    let installed = |c: &TapCluster| c.node(joined).cq_diagnostics(id).is_some();
    cluster.sim.run_until(submitted + 19 * SEC);
    assert!(
        !installed(&cluster),
        "nothing reaches a node outside the tree"
    );
    cluster.sim.run_until(submitted + 25 * SEC);
    assert!(installed(&cluster), "the new node picked the query up");
    assert_eq!(cluster.counter(joined, "cq.plan_pulls"), 1);
    // `Done` at submitted + 30 s; one slide (1 s) later the late installer
    // is out too — not a lease (15 s) later.
    cluster.sim.run_until(submitted + 31 * SEC);
    let done = cluster.sim.outputs().iter().any(|o| {
        matches!(o.value, PierOut::Done { query_id } if query_id == id)
            && o.time == submitted + 30 * SEC
    });
    assert!(done, "the proxy reported Done on time");
    assert!(
        !installed(&cluster),
        "the late installer outlived the query"
    );
    assert_eq!(cluster.node(joined).installed_queries(), 0);
}

#[test]
fn a_stalled_stream_backs_the_proxys_one_clock_off_and_every_lease_stays_live() {
    let mut cluster = TapCluster::start(6, seeded(0x24), PierConfig::default());
    let proxy = cluster.refs[0].addr;
    let sql = "SELECT src, COUNT(*) FROM packets GROUP BY src WINDOW 1s SLIDE 1s EVERY 2s";
    for _ in 0..2 {
        let plan = sqlish::compile(sql, proxy, 200 * SEC).expect("compiles");
        cluster.submit(proxy, plan);
    }
    // Four seconds of stream start both answers flowing; then silence.
    for _ in 0..16 {
        let now = cluster.sim.now();
        let row = Tuple::new(
            "packets",
            vec![("src", Value::str("a")), ("ts", Value::Int(now as i64))],
        );
        cluster.sim.invoke(proxy, |tap, ctx| {
            tap.run(ctx, false, |node, ctx| node.ingest(ctx, "packets", row));
        });
        cluster.sim.run_for(SEC / 4);
    }
    cluster.sim.run_for(60 * SEC);
    let backoffs: Vec<SpanRecord> = cluster
        .node(proxy)
        .telemetry()
        .with(|hub| {
            let events = hub.records().filter(|e| e.stage == "lease.backoff");
            events.copied().collect()
        })
        .expect("telemetry on");
    assert!(
        backoffs.len() >= 3,
        "a stalled stream escalates: {backoffs:?}"
    );
    for event in &backoffs {
        assert_eq!(
            (event.query_id, event.names),
            (0, &["queries", "attempt", "delay"][..]),
            "per proxy, not per query"
        );
        let [queries, _, delay] = event.values;
        assert_eq!(queries, 2, "both standing queries ride the one clock");
        assert!(
            delay < 5 * SEC,
            "capped below lease − renew_every/2, got {delay}"
        );
    }
    // Fewer rounds than the base interval would have run, none too late.
    let rounds = cluster.counter(proxy, "cq.roster_rounds");
    assert!(
        (12..32).contains(&rounds),
        "{rounds} rounds in 64 s of EVERY 2s"
    );
    for addr in cluster.sim.alive_nodes() {
        assert_eq!(
            cluster.node(addr).installed_queries(),
            2,
            "{addr} let a lease lapse"
        );
    }
}

// ----- (iii) one results message per (proxy, window) ---------------------------

/// Final rows per (query, window) at the tenants' proxies: the last
/// emission of a window wins (these queries emit snapshots).
type Answers = BTreeMap<(u64, SimTime, SimTime), Vec<String>>;

/// 16 constant-varied tenants on proxies 0, 1, 2 of an 8-node cluster over
/// a 26 s stream; returns the tenants' ids, their answers and the journal.
fn sixteen_tenants(seed: u64, sharing: bool) -> (Vec<u64>, Answers, Vec<Sent>, SimTime) {
    let mut pier = PierConfig::default();
    if sharing {
        pier.sharing = Some(pier::mqo::layer);
    }
    let mut cluster = TapCluster::start(8, seed, pier);
    let mut ids = Vec::new();
    for tenant in 0..16 {
        let proxy = cluster.refs[tenant % 3].addr;
        let sql = format!(
            "SELECT src, COUNT(*) FROM packets WHERE src = '10.0.0.{tenant}' \
             GROUP BY src WINDOW 2s SLIDE 1s EVERY 5s"
        );
        let plan = sqlish::compile(&sql, proxy, 60 * SEC).expect("compiles");
        ids.push(cluster.submit(proxy, plan));
    }
    cluster.sim.run_for(SEC);
    cluster.clear();
    let _ = cluster.sim.drain_outputs();
    let begin = cluster.sim.now();
    let mut rng = Rng64::new(seed ^ 0x57EA);
    while cluster.sim.now() < begin + 26 * SEC {
        let now = cluster.sim.now();
        for addr in cluster.sim.alive_nodes() {
            for _ in 0..3 {
                // Four sources in twenty belong to no tenant.
                let row = Tuple::new(
                    "packets",
                    vec![
                        ("src", Value::str(format!("10.0.0.{}", rng.next_below(20)))),
                        ("ts", Value::Int(now as i64)),
                    ],
                );
                cluster.sim.invoke(addr, |tap, ctx| {
                    tap.run(ctx, false, |node, ctx| node.ingest(ctx, "packets", row));
                });
            }
        }
        cluster.sim.run_for(SEC / 4);
    }
    cluster.sim.run_for(8 * SEC);
    let mut answers: BTreeMap<(u64, SimTime, SimTime), (SimTime, Vec<String>)> = BTreeMap::new();
    for out in cluster.sim.drain_outputs() {
        let PierOut::WindowResult {
            query_id,
            window_start,
            window_end,
            retract: false,
            tuple,
        } = out.value
        else {
            continue;
        };
        let slot = answers
            .entry((query_id, window_start, window_end))
            .or_default();
        if slot.0 != out.time {
            *slot = (out.time, Vec::new());
        }
        slot.1.push(tuple.to_string());
    }
    let answers = answers
        .into_iter()
        .map(|(k, (_, rows))| (k, rows))
        .collect();
    (ids, answers, cluster.sent(), begin)
}

#[test]
fn a_root_tick_sends_one_results_message_per_proxy_and_window_and_tenants_see_no_difference() {
    let seed = seeded(0x23);
    let (ids, shared, sent, begin) = sixteen_tenants(seed, true);
    let (ids_alone, independent, _, begin_alone) = sixteen_tenants(seed, false);
    assert_eq!(
        (&ids, begin),
        (&ids_alone, begin_alone),
        "same seed, same run"
    );

    // The wire: per handler invocation (a root's tick), one message per
    // (proxy, window); every row inside a message is of its window.
    let mut per_tick: BTreeMap<u64, Vec<(NodeAddr, SimTime)>> = BTreeMap::new();
    let (mut messages, mut members) = (0usize, 0usize);
    for s in &sent {
        let Wire::WindowResults(window, named, one_chunk) = &s.wire else {
            continue;
        };
        assert!(s.on_timer, "results leave from a tick");
        assert!(
            one_chunk,
            "one chunk, partitioned, the bounds in the header"
        );
        assert!(
            named.windows(2).all(|w| w[0] < w[1]),
            "members once, ascending"
        );
        per_tick
            .entry(s.invocation)
            .or_default()
            .push((s.to, window.0));
        messages += 1;
        members += named.len();
    }
    for (tick, mut bundles) in per_tick {
        let sends = bundles.len();
        bundles.sort();
        bundles.dedup();
        assert_eq!(sends, bundles.len(), "tick {tick} split a (proxy, window)");
    }
    assert!(
        members >= 3 * messages,
        "bundling must be exercised: {members} member results in {messages} messages"
    );

    // The answers: every tenant, every window that opened after the group
    // settled and was fully refined before the stream stopped.
    let span = |a: &Answers| -> Answers {
        a.iter()
            .filter(|((_, start, end), _)| *start >= begin + 3 * SEC && *end <= begin + 24 * SEC)
            .map(|(k, rows)| (*k, rows.clone()))
            .collect()
    };
    let (shared, independent) = (span(&shared), span(&independent));
    assert_eq!(shared, independent, "bundled and per-query results differ");
    for id in &ids {
        let windows = shared.keys().filter(|(q, _, _)| q == id).count();
        assert!(
            windows >= 18,
            "tenant q{id} compared over {windows} windows only"
        );
    }
}
