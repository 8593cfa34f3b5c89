//! The one fan-out of the workspace: many workers, numbered units, one
//! ordered result.
//!
//! Every parallel stage splits its work into numbered *units* — schema
//! constraints, blocks of a constraint's edges, per-predicate CSR builds
//! and transposes, a built graph's two serializations (`graph.nt`, whose
//! own emitter's units are its predicates, beside the store), queries,
//! the sub-expression cache fill's distinct candidates, evaluation cells
//! — whose result is a pure function of `(inputs, seed, unit)`: every
//! unit draws from an RNG stream split off the master seed by its index,
//! draws its part of such a stream in unit order, or draws nothing.
//! Workers claim units in ascending order, and the results are put back
//! **in unit order**, so which worker ran a unit, and when, cannot show
//! in the output: it is the same at every thread count, one included.
//! That argument is made here, once, for two primitives on one
//! spawn/join core:
//!
//! * [`ordered_map`] — ordered *values*: `map(i)` for every unit, returned
//!   as a `Vec` in index order;
//! * [`OrderedEmitter`] — ordered *bytes*: units write blocks to shared
//!   outputs, and the emitter writes them in unit order, in one pass,
//!   without temp files.
//!
//! An emitter's units come from a [`ClaimSource`]. Where the unit count
//! is known up front the source is a [`Counter`]; where it is known only
//! once the work is under way — the blocks of a constraint exist once the
//! constraint is set up — it is [`Grouped`], which sets up a bounded
//! number of groups ahead and cuts their units off in order. Either way a
//! unit's number is fixed when it is handed out, ascending and without
//! gaps, so the argument above holds unchanged.
//!
//! [`resolve_threads`] is the one thread-count policy (`0` = every
//! available core, never more workers than units). The caller is always
//! worker 0, so one thread spawns nothing; a worker's panic is resumed on
//! the caller with its own payload once the other workers have stopped.
//!
//! The emitter, step by step:
//!
//! * the *head* is the lowest unit not yet finished. Its owner's blocks go
//!   straight through to the output;
//! * a worker that is ahead of the head *parks* its blocks in memory, up
//!   to a fixed budget (2 MiB) summed over all units, and past that waits
//!   until its unit becomes the head;
//! * when the head finishes, its owner drains the units behind it in
//!   order: every finished one is written whole, and the first unfinished
//!   one becomes the head with whatever it had parked — also while the
//!   drain lasts — already written.
//!
//! Whoever writes — the head's owner or the drain — is the one worker
//! allowed to, so it writes outside the emitter's lock, and the others
//! park meanwhile instead of queueing behind the write.
//!
//! **Progress**: a drain never waits on the emitter; the head's owner
//! waits at most for the drain ahead of it, and every other worker waits
//! only for the head to move.
//! **Memory**: what units hold beyond their own working set is the parked
//! bytes, bounded by a constant; nothing scales with the document.
//! **Failure**: the first write error, failed unit or panicking worker
//! cancels the emitter — no further claims, every waiter wakes, every
//! later write is refused — and [`OrderedEmitter::run`] returns the error
//! of the lowest failed unit (or resumes the panic). One worker is the
//! same protocol with a head that never waits.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, LockResult, Mutex, MutexGuard};
use std::time::Instant;

/// Bytes that units ahead of the head may hold in memory, summed over all
/// of them. A constant on purpose, so memory never scales with the
/// document. It lets a worker off the head run ahead by about one unit
/// when units are small next to it: a `--stream` run's units are blocks
/// of one constraint's edges (`gmark_core::gen`, about 1 MB of N-Triples
/// each), so a worker on the unit behind the head formats it whole and
/// parks it, and the head's owner writes it out when it gets there. Where
/// one unit dwarfs the budget — the materialised `graph.nt`, one unit per
/// predicate — the worker behind parks the first 2 MiB and then waits.
const PARK_BUDGET: usize = 2 << 20;

/// Resolves a requested worker count for `units` units of work: `0` means
/// every available core ([`std::thread::available_parallelism`], 1 when
/// unknown), and the result is clamped to `1..=units.max(1)` — a worker
/// past the last unit would only spawn and exit.
pub fn resolve_threads(requested: usize, units: usize) -> usize {
    let threads = match requested {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    };
    threads.clamp(1, units.max(1))
}

/// Runs `worker(k)` for every `k < threads` — `threads - 1` scoped threads
/// plus the caller as worker 0 — and returns the results in worker order.
/// A worker's panic is resumed on the caller with its own payload once
/// every other worker has returned.
fn fan_out<T: Send>(threads: usize, worker: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let worker = &worker;
    std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..threads.max(1))
            .map(|k| scope.spawn(move || worker(k)))
            .collect();
        // A panic here — worker 0's or one resumed below — leaves `scope`
        // to join the remaining workers before it propagates.
        let mut results = vec![worker(0)];
        for handle in spawned {
            match handle.join() {
                Ok(result) => results.push(result),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        results
    })
}

/// `map(i)` for every unit `i < units`, on `threads` workers as resolved
/// by [`resolve_threads`], returned in index order. Workers claim units in
/// ascending order off a shared counter, which balances units of uneven
/// cost; whenever `map` is a pure function of its unit the result is the
/// same at every thread count (see the module docs).
pub fn ordered_map<T: Send>(
    threads: usize,
    units: usize,
    map: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let next = Counter::new(units);
    let per_worker = fan_out(resolve_threads(threads, units), |_| {
        let mut done = Vec::new();
        while let Some((unit, _)) = next.claim() {
            done.push((unit, map(unit)));
        }
        done
    });
    let mut indexed: Vec<(usize, T)> = per_worker.into_iter().flatten().collect();
    indexed.sort_unstable_by_key(|&(unit, _)| unit);
    indexed.into_iter().map(|(_, value)| value).collect()
}

/// Hands out a run's units: each claim is the next unit number — ascending
/// from 0, without gaps, whichever worker asks — with what a worker needs
/// to produce that unit. Numbering at hand-out is what lets a source learn
/// its unit count as it goes.
pub trait ClaimSource: Sync {
    /// What a unit's worker receives besides the unit's number.
    type Claim: Send;

    /// An upper bound on the units this source will hand out; a run
    /// starts no more workers than this.
    fn max_units(&self) -> usize;

    /// The next unit, or `None` once there is none left.
    fn claim(&self) -> Option<(usize, Self::Claim)>;
}

/// The claim source of a known unit count: units `0..units`, each claim
/// carrying its own number.
#[derive(Debug)]
pub struct Counter {
    next: AtomicUsize,
    units: usize,
}

impl Counter {
    /// A counter over `units` units.
    pub fn new(units: usize) -> Self {
        Counter {
            next: AtomicUsize::new(0),
            units,
        }
    }
}

impl ClaimSource for Counter {
    type Claim = usize;

    fn max_units(&self) -> usize {
        self.units
    }

    fn claim(&self) -> Option<(usize, usize)> {
        // Relaxed: the counter publishes nothing but itself.
        let unit = self.next.fetch_add(1, Ordering::Relaxed);
        (unit < self.units).then_some((unit, unit))
    }
}

/// One group of a [`Grouped`] source, set up and ready to be cut into
/// units.
pub trait Group: Send {
    /// What one unit carries to its worker.
    type Unit: Send;

    /// Cuts off the group's next unit; `None` once the group is exhausted.
    /// Runs under the source's lock, so cuts happen one at a time and in
    /// unit order: keep it cheap.
    fn cut(&mut self) -> Option<Self::Unit>;
}

/// A claim source over `groups` groups whose unit counts are known only
/// once each group is set up. Units are cut from the lowest unexhausted
/// group, in group order, and numbered as they are handed out.
///
/// A worker that asks for a unit while fewer than `ahead` groups are set
/// up (or being set up) and not yet exhausted sets up the next group
/// first, outside the lock, so setups run beside the cutting and
/// formatting of earlier groups' units while memory holds at most `ahead`
/// set-up groups. A worker that can neither set up nor cut waits for the
/// setup of the lowest group, which another worker is running. A panic in
/// a setup or a cut stops the source: every waiter wakes and every later
/// claim gets `None`.
pub struct Grouped<G, S> {
    groups: usize,
    ahead: usize,
    setup: S,
    state: Mutex<Staging<G>>,
    /// Signalled when a setup lands, a group is exhausted, or the source
    /// fails.
    changed: Condvar,
}

struct Staging<G> {
    next_unit: usize,
    /// The next group to set up.
    next_group: usize,
    /// The group units are cut from: the lowest not yet exhausted.
    head: usize,
    /// Groups set up or being set up, not yet exhausted.
    live: usize,
    /// Set-up groups by index.
    ready: BTreeMap<usize, G>,
    failed: bool,
}

impl<G: Group, S: Fn(usize) -> G + Sync> Grouped<G, S> {
    /// A source over groups `0..groups`, `setup(g)` making group `g`, with
    /// at most `ahead` groups (at least one) set up at once.
    pub fn new(groups: usize, ahead: usize, setup: S) -> Self {
        Grouped {
            groups,
            ahead: ahead.max(1),
            setup,
            state: Mutex::new(Staging {
                next_unit: 0,
                next_group: 0,
                head: 0,
                live: 0,
                ready: BTreeMap::new(),
                failed: false,
            }),
            changed: Condvar::new(),
        }
    }
}

impl<G, S> Grouped<G, S> {
    /// A poisoned lock means a cut panicked: the source has failed.
    fn recover<'a>(
        &self,
        guard: LockResult<MutexGuard<'a, Staging<G>>>,
    ) -> MutexGuard<'a, Staging<G>> {
        guard.unwrap_or_else(|poisoned| {
            let mut st = poisoned.into_inner();
            st.failed = true;
            st
        })
    }

    fn lock(&self) -> MutexGuard<'_, Staging<G>> {
        self.recover(self.state.lock())
    }
}

/// Fails the source when a claim unwinds, so a panicking setup or cut
/// wakes the workers waiting for it.
struct FailOnPanic<'a, G, S>(&'a Grouped<G, S>);

impl<G, S> Drop for FailOnPanic<'_, G, S> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.lock().failed = true;
            self.0.changed.notify_all();
        }
    }
}

impl<G: Group, S: Fn(usize) -> G + Sync> ClaimSource for Grouped<G, S> {
    type Claim = G::Unit;

    /// Unknown until the last group is set up; zero when there are none.
    fn max_units(&self) -> usize {
        if self.groups == 0 {
            0
        } else {
            usize::MAX
        }
    }

    fn claim(&self) -> Option<(usize, G::Unit)> {
        let _wake_the_others = FailOnPanic(self);
        let mut st = self.lock();
        loop {
            if st.failed {
                return None;
            }
            if st.next_group < self.groups && st.live < self.ahead {
                let group = st.next_group;
                st.next_group += 1;
                st.live += 1;
                drop(st);
                let ready = (self.setup)(group);
                st = self.lock();
                st.ready.insert(group, ready);
                self.changed.notify_all();
                continue;
            }
            let head = st.head;
            if head == self.groups {
                return None;
            }
            let Some(group) = st.ready.get_mut(&head) else {
                st = self.recover(self.changed.wait(st));
                continue;
            };
            if let Some(unit) = group.cut() {
                let number = st.next_unit;
                st.next_unit += 1;
                return Some((number, unit));
            }
            st.ready.remove(&head);
            st.head += 1;
            st.live -= 1;
            self.changed.notify_all();
        }
    }
}

/// Where the time of one ordered stage went — the numbers that tell a
/// formatting-bound run from a write-bound one.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EmitStats {
    /// `write_all` calls made on the outputs.
    pub blocks: u64,
    /// Bytes written to the outputs.
    pub bytes: u64,
    /// Seconds spent inside the outputs' `write_all`.
    pub write_seconds: f64,
    /// Seconds workers spent waiting for their unit to become the head,
    /// summed over workers.
    pub parked_seconds: f64,
}

impl std::fmt::Display for EmitStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} blocks, {} bytes, {:.3}s in write, {:.3}s parked",
            self.blocks, self.bytes, self.write_seconds, self.parked_seconds
        )
    }
}

/// The emitter refused a block or a claim because it was cancelled; the
/// cause is recorded where it happened.
#[derive(Debug)]
struct Cancelled;

/// What a unit ahead of the head has handed over so far.
#[derive(Default)]
struct Parked {
    /// `(lane, bytes)` in hand-over order.
    blocks: Vec<(usize, Vec<u8>)>,
    /// The unit's worker is done with it.
    finished: bool,
}

struct State<W> {
    /// Empty while a worker writes to them outside the lock.
    outs: Vec<W>,
    /// The lowest unit not yet finished.
    head: usize,
    /// A finished head's owner is writing out the parked units behind it:
    /// until it is done, the new head's owner parks too.
    draining: bool,
    parked: BTreeMap<usize, Parked>,
    parked_bytes: usize,
    /// The first write error, with the unit whose block it refused.
    failure: Option<(usize, io::Error)>,
    stats: EmitStats,
}

/// Writes the blocks of numbered units to `outs` in ascending unit order,
/// whichever worker produces them and whenever (see the module docs).
/// The units come from a [`ClaimSource`] `C`: a [`Counter`] for
/// [`OrderedEmitter::new`]'s fixed count.
///
/// A unit may write to several outputs (*lanes*): the workload pipeline
/// renders each query into five documents.
pub struct OrderedEmitter<W, C = Counter> {
    state: Mutex<State<W>>,
    /// Signalled when the head moves and when the emitter is cancelled.
    turn: Condvar,
    claims: C,
    cancelled: AtomicBool,
    lanes: usize,
}

/// One output of the unit a worker is on; everything written to it lands
/// in that output after the bytes of every lower unit.
pub struct Lane<'a, W, C> {
    emitter: &'a OrderedEmitter<W, C>,
    unit: usize,
    lane: usize,
    /// A write was refused: whatever the unit reports from here on is a
    /// consequence of the failure that cancelled the emitter.
    cut: bool,
}

impl<W: Write, C> Write for Lane<'_, W, C> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.emitter.emit(self.unit, self.lane, buf) {
            Ok(()) => Ok(buf.len()),
            Err(Cancelled) => {
                self.cut = true;
                Err(io::Error::other(
                    "ordered output cancelled by an earlier failure",
                ))
            }
        }
    }

    /// The outputs are flushed once, when the run ends.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Cancels the emitter when its worker unwinds, so a panic anywhere in a
/// unit wakes the workers parked behind it.
struct CancelOnPanic<'a, W, C>(&'a OrderedEmitter<W, C>);

impl<W, C> Drop for CancelOnPanic<'_, W, C> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.cancel();
        }
    }
}

impl<W> OrderedEmitter<W> {
    /// An emitter for `units` units writing to `outs`, one per lane.
    pub fn new(outs: Vec<W>, units: usize) -> Self {
        Self::with_claims(outs, Counter::new(units))
    }
}

impl<W, C> OrderedEmitter<W, C> {
    /// An emitter for the units `claims` hands out, writing to `outs`, one
    /// per lane.
    pub fn with_claims(outs: Vec<W>, claims: C) -> Self {
        OrderedEmitter {
            lanes: outs.len(),
            state: Mutex::new(State {
                outs,
                head: 0,
                draining: false,
                parked: BTreeMap::new(),
                parked_bytes: 0,
                failure: None,
                stats: EmitStats::default(),
            }),
            turn: Condvar::new(),
            claims,
            cancelled: AtomicBool::new(false),
        }
    }

    /// A poisoned lock means an output panicked inside `write_all`: the
    /// document is void and the run is about to unwind. Cancelling here
    /// makes every method refuse before it reads the abandoned state.
    fn recover<'a>(&self, guard: LockResult<MutexGuard<'a, State<W>>>) -> MutexGuard<'a, State<W>> {
        guard.unwrap_or_else(|poisoned| {
            self.cancelled.store(true, Ordering::SeqCst);
            poisoned.into_inner()
        })
    }

    fn lock(&self) -> MutexGuard<'_, State<W>> {
        self.recover(self.state.lock())
    }

    fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
    }

    /// Stops further claims and wakes every waiter. Taking the lock first
    /// closes the window between a waiter's check and its wait.
    fn cancel(&self) {
        let _state = self.lock();
        self.cancelled.store(true, Ordering::SeqCst);
        self.turn.notify_all();
    }

    /// The next unit, in ascending order; `None` once all are claimed or
    /// the emitter is cancelled.
    fn claim(&self) -> Option<(usize, C::Claim)>
    where
        C: ClaimSource,
    {
        if self.is_cancelled() {
            return None;
        }
        self.claims.claim()
    }
}

impl<W: Write, C> OrderedEmitter<W, C> {
    /// Writes blocks of `unit` — `(lane, bytes)` — to their outputs. The
    /// caller holds the turn: it owns the head, or drains the parked units
    /// behind a head it just finished, so no other worker writes until it
    /// gives the turn up. That makes the outputs its to check out of the
    /// state for the duration, and the lock free for workers parking
    /// meanwhile. Returns the lock re-taken.
    fn write<'a, 'b>(
        &'a self,
        mut st: MutexGuard<'a, State<W>>,
        unit: usize,
        blocks: impl IntoIterator<Item = (usize, &'b [u8])>,
    ) -> Result<MutexGuard<'a, State<W>>, Cancelled> {
        let mut outs = std::mem::take(&mut st.outs);
        drop(st);
        let since = Instant::now();
        let (mut count, mut bytes, mut result) = (0, 0, Ok(()));
        for (lane, block) in blocks {
            result = outs[lane].write_all(block);
            if result.is_err() {
                break;
            }
            count += 1;
            bytes += block.len() as u64;
        }
        let seconds = since.elapsed().as_secs_f64();
        let mut st = self.lock();
        st.outs = outs;
        st.stats.write_seconds += seconds;
        st.stats.blocks += count;
        st.stats.bytes += bytes;
        if let Err(e) = result {
            st.failure.get_or_insert((unit, e));
            self.cancelled.store(true, Ordering::SeqCst);
            self.turn.notify_all();
            return Err(Cancelled);
        }
        Ok(st)
    }

    /// Hands over one block of `unit`: written through when the unit is
    /// the head, parked while the budget lasts, and otherwise held back
    /// until the unit becomes the head.
    fn emit(&self, unit: usize, lane: usize, bytes: &[u8]) -> Result<(), Cancelled> {
        if bytes.is_empty() {
            return Ok(());
        }
        let mut st = self.lock();
        loop {
            if self.is_cancelled() {
                return Err(Cancelled);
            }
            if unit == st.head && !st.draining {
                return self.write(st, unit, [(lane, bytes)]).map(drop);
            }
            if st.parked_bytes + bytes.len() <= PARK_BUDGET {
                st.parked_bytes += bytes.len();
                let parked = st.parked.entry(unit).or_default();
                parked.blocks.push((lane, bytes.to_vec()));
                return Ok(());
            }
            let since = Instant::now();
            st = self.recover(self.turn.wait(st));
            st.stats.parked_seconds += since.elapsed().as_secs_f64();
        }
    }

    /// Marks `unit` done. When it was the head, the head moves on: parked
    /// units behind it are written in order, up to and including the
    /// parked part of the first unfinished one — the new head — and
    /// whatever that one parks while this drain lasts.
    fn finish(&self, unit: usize) -> Result<(), Cancelled> {
        let mut st = self.lock();
        if self.is_cancelled() {
            return Err(Cancelled);
        }
        if unit != st.head || st.draining {
            st.parked.entry(unit).or_default().finished = true;
            return Ok(());
        }
        st.draining = true;
        st.head += 1;
        loop {
            let head = st.head;
            let Some(parked) = st.parked.remove(&head) else {
                break;
            };
            let blocks = parked
                .blocks
                .iter()
                .map(|(lane, block)| (*lane, &block[..]));
            st = self.write(st, head, blocks)?;
            st.parked_bytes -= parked.blocks.iter().map(|(_, b)| b.len()).sum::<usize>();
            if parked.finished {
                st.head += 1;
            }
        }
        st.draining = false;
        self.turn.notify_all();
        Ok(())
    }

    /// Runs `work` once per unit on `threads` workers as resolved by
    /// [`resolve_threads`] (the caller is one of them) and returns each
    /// worker's folded state — in no particular order — with the stage's
    /// [`EmitStats`], after flushing the outputs.
    ///
    /// `work(state, claim, lanes)` produces the unit it was handed (for a
    /// [`Counter`], `claim` is the unit's number), writing its bytes to
    /// `lanes` and folding whatever it wants to keep into its worker's
    /// `state`. If any unit fails, the error of the **lowest** failed unit
    /// is returned, whatever the scheduling: units are claimed in
    /// ascending order and a claimed unit always runs to its own verdict,
    /// so every unit below a failed one has reported by the time the
    /// workers are joined. A write error counts against the unit whose
    /// block was refused. A panicking worker is resumed on the caller
    /// once the others have stopped.
    pub fn run<S, E, F>(self, threads: usize, work: F) -> Result<(Vec<S>, EmitStats), E>
    where
        W: Send,
        C: ClaimSource,
        S: Default + Send,
        E: From<io::Error> + Send,
        F: Fn(&mut S, C::Claim, &mut [Lane<'_, W, C>]) -> Result<(), E> + Sync,
    {
        let worker = || -> (S, Option<(usize, E)>) {
            let _wake_the_others = CancelOnPanic(&self);
            let mut state = S::default();
            while let Some((unit, claim)) = self.claim() {
                let mut lanes: Vec<Lane<'_, W, C>> = (0..self.lanes)
                    .map(|lane| Lane {
                        emitter: &self,
                        unit,
                        lane,
                        cut: false,
                    })
                    .collect();
                let result = work(&mut state, claim, &mut lanes);
                let cut = lanes.iter().any(|lane| lane.cut);
                match result {
                    Ok(()) if !cut && self.finish(unit).is_ok() => {}
                    Err(e) if !cut => {
                        self.cancel();
                        return (state, Some((unit, e)));
                    }
                    _ => break,
                }
            }
            (state, None)
        };
        let results = fan_out(resolve_threads(threads, self.claims.max_units()), |_| {
            worker()
        });

        let State {
            mut outs,
            failure,
            stats,
            ..
        } = self
            .state
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut failure = failure.map(|(unit, e)| (unit, E::from(e)));
        let mut states = Vec::with_capacity(results.len());
        for (state, failed) in results {
            states.push(state);
            if let Some((unit, e)) = failed {
                if failure.as_ref().is_none_or(|(lowest, _)| unit < *lowest) {
                    failure = Some((unit, e));
                }
            }
        }
        if let Some((_, e)) = failure {
            return Err(e);
        }
        for out in &mut outs {
            out.flush()?;
        }
        Ok((states, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EdgeSink, NTriplesFormat, NTriplesWriter};
    use std::sync::mpsc;
    use std::time::Duration;

    /// Runs `f` on its own thread and fails the test if it has not
    /// returned (or panicked) within a minute: a hang must fail, not stall.
    fn within_a_minute<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(value) => value,
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("the emitter hung"),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(thread.join().expect_err("sender dropped unsent"))
            }
        }
    }

    /// Spins until `ready` holds for the emitter's state.
    fn wait_until<W>(emitter: &OrderedEmitter<W>, ready: impl Fn(&State<W>) -> bool) {
        while !ready(&emitter.lock()) {
            std::thread::yield_now();
        }
    }

    fn unit_text(unit: usize) -> String {
        format!("unit {unit};").repeat(unit % 4)
    }

    #[test]
    fn thread_counts_resolve_to_at_least_one_and_at_most_the_units() {
        assert!(resolve_threads(0, 1000) >= 1, "0 = every available core");
        assert_eq!(resolve_threads(0, 1), 1);
        assert_eq!(resolve_threads(8, 3), 3, "no more workers than units");
        assert_eq!(resolve_threads(8, 0), 1, "no units: the caller alone");
        assert_eq!(resolve_threads(2, usize::MAX), 2);
    }

    #[test]
    fn ordered_map_returns_index_order_under_skewed_costs() {
        // Early units are the slow ones, so later units finish first on
        // every other worker.
        let expected: Vec<usize> = (0..64).map(|i| i * i).collect();
        for threads in [1, 2, 8] {
            let squares = ordered_map(threads, 64, |i| {
                if i < 4 {
                    std::thread::sleep(Duration::from_millis(20));
                }
                i * i
            });
            assert_eq!(squares, expected, "{threads} threads");
        }
    }

    #[test]
    fn zero_units_spawn_nothing_and_extra_threads_stay_idle() {
        let caller = std::thread::current().id();
        assert_eq!(
            fan_out(resolve_threads(8, 0), |_| std::thread::current().id()),
            [caller]
        );
        assert!(ordered_map(8, 0, |_| -> () { unreachable!() }).is_empty());
        assert_eq!(fan_out(resolve_threads(8, 3), |k| k), [0, 1, 2]);
        assert_eq!(ordered_map(8, 3, |i| i + 10), [10, 11, 12]);
    }

    #[test]
    fn a_panic_in_a_unit_reaches_the_caller_with_its_own_payload() {
        for threads in [1usize, 4] {
            let panic = within_a_minute(move || {
                std::panic::catch_unwind(|| {
                    ordered_map(threads, 16, |i| {
                        if i == 5 {
                            panic!("unit 5 blew up");
                        }
                        i
                    })
                })
                .unwrap_err()
            });
            assert_eq!(
                panic.downcast_ref::<&str>(),
                Some(&"unit 5 blew up"),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn blocks_handed_over_out_of_order_are_written_in_unit_order() {
        // The protocol step by step, on one thread.
        let mut out = Vec::new();
        let emitter = OrderedEmitter::new(vec![&mut out], 3);
        emitter.emit(2, 0, b"c").unwrap();
        emitter.finish(2).unwrap();
        emitter.emit(1, 0, b"b1").unwrap();
        assert!(emitter.lock().outs[0].is_empty(), "nothing before unit 0");
        emitter.emit(0, 0, b"a").unwrap();
        assert_eq!(*emitter.lock().outs[0], b"a", "the head writes through");
        emitter.finish(0).unwrap();
        assert_eq!(*emitter.lock().outs[0], b"ab1", "unit 1 is the head now");
        emitter.emit(1, 0, b"b2").unwrap();
        emitter.finish(1).unwrap();
        let st = emitter.lock();
        assert_eq!(*st.outs[0], b"ab1b2c");
        assert_eq!((st.head, st.parked_bytes, st.parked.len()), (3, 0, 0));
        assert_eq!((st.stats.blocks, st.stats.bytes), (4, 6));
    }

    #[test]
    fn lanes_are_independent_outputs() {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let emitter = OrderedEmitter::new(vec![&mut a, &mut b], 2);
        let (_, stats) = emitter
            .run(2, |_: &mut (), unit, lanes| -> io::Result<()> {
                lanes[1].write_all(format!("b{unit}").as_bytes())?;
                lanes[0].write_all(format!("a{unit}").as_bytes())
            })
            .unwrap();
        assert_eq!((a, b), (b"a0a1".to_vec(), b"b0b1".to_vec()));
        assert_eq!(stats.bytes, 8);
    }

    #[test]
    fn units_finishing_before_the_head_starts_drain_behind_it() {
        let mut out = Vec::new();
        let emitter = OrderedEmitter::new(vec![&mut out], 3);
        emitter
            .run(3, |_: &mut (), unit, lanes| -> io::Result<()> {
                if unit == 0 {
                    // Hold the head back until both later units are done.
                    wait_until(lanes[0].emitter, |st| {
                        [1, 2]
                            .iter()
                            .all(|u| st.parked.get(u).is_some_and(|p| p.finished))
                    });
                }
                lanes[0].write_all(format!("<{unit}>").as_bytes())
            })
            .unwrap();
        assert_eq!(out, b"<0><1><2>");
    }

    #[test]
    fn empty_units_and_one_worker_with_many_units() {
        let expected: String = (0..1000).map(unit_text).collect();
        for threads in [1usize, 2, 8] {
            let mut out = Vec::new();
            let emitter = OrderedEmitter::new(vec![&mut out], 1000);
            let (folded, stats) = emitter
                .run(
                    threads,
                    |units: &mut usize, unit, lanes| -> io::Result<()> {
                        *units += 1;
                        lanes[0].write_all(unit_text(unit).as_bytes())
                    },
                )
                .unwrap();
            assert_eq!(
                String::from_utf8(out).unwrap(),
                expected,
                "{threads} threads"
            );
            assert_eq!(folded.len(), threads);
            assert_eq!(folded.iter().sum::<usize>(), 1000);
            assert_eq!(stats.bytes, expected.len() as u64);
            if threads == 1 {
                assert_eq!(stats.blocks, 750, "every fourth unit writes nothing");
                assert_eq!(stats.parked_seconds, 0.0, "a lone worker never waits");
            }
        }
        // No units at all: the caller alone, nothing spawned.
        let mut out = Vec::new();
        let (folded, stats) = OrderedEmitter::new(vec![&mut out], 0)
            .run(4, |_: &mut (), _, _| -> io::Result<()> { unreachable!() })
            .unwrap();
        assert_eq!((folded.len(), stats), (1, EmitStats::default()));
        assert!(out.is_empty());
    }

    #[test]
    fn units_of_whole_blocks_leave_no_tail() {
        // 64-byte lines: 8192 of them are exactly two writer blocks.
        let names = vec!["abc".to_owned()];
        let format = std::sync::Arc::new(NTriplesFormat::new(&names, "http://x"));
        let lines = 1000..1000 + 8192u32;
        let mut reference = Vec::new();
        for unit in 0..3 {
            for i in lines.clone() {
                format.push_line(&mut reference, i, 0, 9999 - unit);
            }
        }
        assert_eq!(reference.len(), 3 * 2 * 256 * 1024);
        for threads in [1usize, 3] {
            let mut out = Vec::new();
            let (_, stats) = OrderedEmitter::new(vec![&mut out], 3)
                .run(threads, |_: &mut (), unit, lanes| -> io::Result<()> {
                    let mut writer = NTriplesWriter::with_format(&mut lanes[0], format.clone());
                    for i in lines.clone() {
                        writer.edge(i, 0, 9999 - unit as u32);
                    }
                    writer.finish().map(drop)
                })
                .unwrap();
            assert!(out == reference, "{threads} threads: bytes differ");
            assert_eq!(stats.blocks, 6, "no empty tail block");
        }
    }

    #[test]
    fn a_unit_far_larger_than_the_budget_waits_behind_a_slow_head() {
        let block = vec![b'x'; 64 * 1024];
        let blocks = 5 * PARK_BUDGET / block.len();
        let mut out = Vec::new();
        let emitter = OrderedEmitter::new(vec![&mut out], 2);
        let (_, stats) = emitter
            .run(2, |_: &mut (), unit, lanes| -> io::Result<()> {
                if unit == 0 {
                    // The head stays silent until unit 1 has parked all the
                    // budget allows; unit 1's next block has to wait.
                    let emitter = lanes[0].emitter;
                    wait_until(emitter, |st| st.parked_bytes + block.len() > PARK_BUDGET);
                    assert!(emitter.lock().parked_bytes <= PARK_BUDGET);
                    return lanes[0].write_all(b"head");
                }
                for _ in 0..blocks {
                    lanes[0].write_all(&block)?;
                }
                Ok(())
            })
            .unwrap();
        assert_eq!(out.len(), 4 + blocks * block.len());
        assert!(out.starts_with(b"headx") && out[4..].iter().all(|&b| b == b'x'));
        assert_eq!(stats.bytes, out.len() as u64);
    }

    /// Accepts `room` bytes, then fails every write.
    struct FailsAfter {
        room: usize,
    }

    impl Write for FailsAfter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if buf.len() > self.room {
                return Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"));
            }
            self.room -= buf.len();
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_write_error_stops_the_run_and_is_returned_at_every_thread_count() {
        for threads in [1usize, 2, 8] {
            let (err, claimed) = within_a_minute(move || {
                let claimed = AtomicUsize::new(0);
                let out = FailsAfter { room: 10_000 };
                let err = OrderedEmitter::new(vec![out], 100_000)
                    .run(threads, |_: &mut (), _, lanes| -> io::Result<()> {
                        claimed.fetch_add(1, Ordering::Relaxed);
                        lanes[0].write_all(&[b'x'; 100])
                    })
                    .unwrap_err();
                (err, claimed.into_inner())
            });
            assert_eq!(err.kind(), io::ErrorKind::StorageFull, "{threads} threads");
            assert_eq!(
                err.to_string(),
                "disk full",
                "the error itself, not a stand-in"
            );
            // 100 units fit; the rest of the 100 000 are never claimed.
            // Units ahead of the failing one may have parked 2 MiB of them.
            assert!(
                claimed <= 101 + PARK_BUDGET / 100 + threads,
                "{claimed} units ran"
            );
        }
    }

    #[test]
    fn the_lowest_failed_unit_is_reported_whatever_the_order() {
        let err = within_a_minute(|| {
            OrderedEmitter::new(vec![Vec::new()], 8)
                .run(8, |_: &mut (), unit, lanes| -> io::Result<()> {
                    match unit {
                        // Unit 5 fails first and cancels the emitter; unit
                        // 2, claimed before it, fails only afterwards.
                        5 => Err(io::Error::other("unit 5")),
                        2 => {
                            let emitter = lanes[0].emitter;
                            while !emitter.is_cancelled() {
                                std::thread::yield_now();
                            }
                            Err(io::Error::other("unit 2"))
                        }
                        _ => lanes[0].write_all(b"fine"),
                    }
                })
                .unwrap_err()
        });
        assert_eq!(err.to_string(), "unit 2");
    }

    #[test]
    fn a_panicking_unit_wakes_the_parked_workers_and_is_resumed() {
        for threads in [1usize, 2, 8] {
            let panic = within_a_minute(move || {
                std::panic::catch_unwind(|| {
                    let block = vec![b'x'; PARK_BUDGET];
                    OrderedEmitter::new(vec![Vec::new()], 8).run(
                        threads,
                        |_: &mut (), unit, lanes| -> io::Result<()> {
                            if unit == 0 {
                                if threads > 1 {
                                    // Let a later unit exhaust the budget
                                    // first, so some worker is (about to
                                    // be) parked when the head dies.
                                    wait_until(lanes[0].emitter, |st| st.parked_bytes > 0);
                                }
                                panic!("unit 0 blew up");
                            }
                            lanes[0].write_all(&block)?;
                            lanes[0].write_all(&block)
                        },
                    )
                })
                .map(drop)
                .unwrap_err()
            });
            assert_eq!(panic.downcast_ref::<&str>(), Some(&"unit 0 blew up"));
        }
    }

    #[test]
    fn a_panicking_output_poisons_nothing_the_run_cannot_unwind_from() {
        struct Explodes;
        impl Write for Explodes {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                panic!("the output blew up");
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let panic = within_a_minute(|| {
            std::panic::catch_unwind(|| {
                let block = vec![b'x'; PARK_BUDGET];
                OrderedEmitter::new(vec![Explodes], 4).run(
                    4,
                    |_: &mut (), unit, lanes| -> io::Result<()> {
                        if unit == 0 {
                            wait_until(lanes[0].emitter, |st| st.parked_bytes > 0);
                        }
                        lanes[0].write_all(&block)?;
                        lanes[0].write_all(&block)
                    },
                )
            })
            .map(drop)
            .unwrap_err()
        });
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"the output blew up"));
    }

    /// Group `group` of a [`Grouped`] test source: `len` units, each
    /// carrying `(group, k)`.
    struct Countdown {
        group: usize,
        len: usize,
        next: usize,
    }

    impl Group for Countdown {
        type Unit = (usize, usize);

        fn cut(&mut self) -> Option<(usize, usize)> {
            if self.next == self.len {
                return None;
            }
            self.next += 1;
            Some((self.group, self.next - 1))
        }
    }

    fn countdown(group: usize, len: usize) -> Countdown {
        Countdown {
            group,
            len,
            next: 0,
        }
    }

    #[test]
    fn units_of_a_grouped_source_come_out_in_order_under_skewed_costs() {
        // Group g holds g % 5 units, so every fifth group is empty; early
        // groups are slow to set up and their units slow to produce.
        let len = |g: usize| g % 5;
        let expected: String = (0..40)
            .flat_map(|g| (0..len(g)).map(move |k| format!("{g}.{k};")))
            .collect();
        for threads in [1usize, 2, 3, 8] {
            let mut out = Vec::new();
            let source = Grouped::new(40, threads, |g| {
                if g < 3 {
                    std::thread::sleep(Duration::from_millis(10));
                }
                countdown(g, len(g))
            });
            let (folded, stats) = OrderedEmitter::with_claims(vec![&mut out], source)
                .run(
                    threads,
                    |units: &mut usize, (g, k), lanes| -> io::Result<()> {
                        if g < 4 {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        *units += 1;
                        lanes[0].write_all(format!("{g}.{k};").as_bytes())
                    },
                )
                .unwrap();
            assert_eq!(
                String::from_utf8(out).unwrap(),
                expected,
                "{threads} threads"
            );
            assert_eq!(folded.len(), threads);
            assert_eq!(folded.iter().sum::<usize>(), (0..40).map(len).sum());
            assert_eq!(stats.bytes, expected.len() as u64);
        }
    }

    #[test]
    fn a_grouped_source_with_no_units_runs_nothing() {
        for groups in [0usize, 6] {
            let mut out = Vec::new();
            let source = Grouped::new(groups, 4, |g| countdown(g, 0));
            let (folded, stats) = OrderedEmitter::with_claims(vec![&mut out], source)
                .run(4, |_: &mut (), _, _| -> io::Result<()> { unreachable!() })
                .unwrap();
            assert_eq!(stats, EmitStats::default(), "{groups} groups");
            assert!(out.is_empty());
            let expected_workers = if groups == 0 { 1 } else { 4 };
            assert_eq!(folded.len(), expected_workers, "{groups} groups");
        }
    }

    #[test]
    fn the_lowest_failed_unit_of_a_grouped_source_is_reported_at_every_thread_count() {
        for threads in [1usize, 2, 3, 8] {
            let err = within_a_minute(move || {
                let source = Grouped::new(12, threads, |g| countdown(g, 3));
                OrderedEmitter::with_claims(vec![Vec::new()], source)
                    .run(threads, |_: &mut (), (g, k), lanes| -> io::Result<()> {
                        match (g, k) {
                            // Unit (2, 1) fails only once (7, 0), handed out
                            // after it, has failed and cancelled the run.
                            (2, 1) => {
                                let emitter = lanes[0].emitter;
                                while threads > 1 && !emitter.is_cancelled() {
                                    std::thread::yield_now();
                                }
                                Err(io::Error::other("unit (2, 1)"))
                            }
                            (7, 0) => Err(io::Error::other("unit (7, 0)")),
                            _ => lanes[0].write_all(b"fine"),
                        }
                    })
                    .unwrap_err()
            });
            assert_eq!(err.to_string(), "unit (2, 1)", "{threads} threads");
        }
    }

    #[test]
    fn a_panicking_setup_or_cut_wakes_the_waiting_workers_and_is_resumed() {
        /// A group that panics when cut, or a fine one.
        struct Fragile(Option<Countdown>);
        impl Group for Fragile {
            type Unit = (usize, usize);
            fn cut(&mut self) -> Option<(usize, usize)> {
                match &mut self.0 {
                    Some(group) => group.cut(),
                    None => panic!("cut blew up"),
                }
            }
        }
        for (stage, message) in [("setup", "setup blew up"), ("cut", "cut blew up")] {
            for threads in [1usize, 2, 8] {
                let panic = within_a_minute(move || {
                    std::panic::catch_unwind(|| {
                        // At most two groups set up at once: while group 1
                        // is (slowly) being set up, the workers past the
                        // second wait for it.
                        let source = Grouped::new(6, 2, |g| {
                            if g != 1 {
                                return Fragile(Some(countdown(g, 4)));
                            }
                            std::thread::sleep(Duration::from_millis(50));
                            if stage == "setup" {
                                panic!("setup blew up");
                            }
                            Fragile(None)
                        });
                        OrderedEmitter::with_claims(vec![Vec::new()], source).run(
                            threads,
                            |_: &mut (), (g, k), lanes| -> io::Result<()> {
                                lanes[0].write_all(format!("{g}.{k};").as_bytes())
                            },
                        )
                    })
                    .map(drop)
                    .unwrap_err()
                });
                assert_eq!(
                    panic.downcast_ref::<&str>(),
                    Some(&message),
                    "{stage}, {threads} threads"
                );
            }
        }
    }
}
