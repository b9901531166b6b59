//! Hierarchical timer wheel.
//!
//! The old transport drove retransmission by waking every 20 ms and
//! polling every association — O(flows) work per tick regardless of
//! how many deadlines are actually due. The engine instead gives each
//! shard a four-level timer wheel (64 slots per level, 1 ms base tick
//! by default): scheduling is O(1), and advancing the clock touches
//! only the slots that expire, so thousands of idle flows cost nothing.
//!
//! Level *l* slots span `64^l` ticks; the wheel covers `64^4` ticks
//! (≈ 4.6 hours at 1 ms) before overflowing into the top level's last
//! ring, where entries simply re-cascade — renewal deadlines hours out
//! are still honored, just with coarser initial placement.
//!
//! The wheel also keeps its exact earliest deadline as a field (the
//! cached minimum of Varghese & Lauck's hierarchical wheels): a
//! schedule folds its deadline in with a `min`, and only an advance
//! that fires the entry holding it rescans the pending set. So
//! [`TimerWheel::next_deadline`] — read after every datagram, sign and
//! settle to size worker sleeps — is a field load, however many
//! entries are pending.

use alpha_core::Timestamp;

const LEVELS: usize = 4;
const SLOTS: usize = 64;

struct Entry<T> {
    deadline_tick: u64,
    item: T,
}

/// A four-level hierarchical timer wheel over virtual [`Timestamp`]s.
pub struct TimerWheel<T> {
    tick_us: u64,
    /// The tick the wheel has advanced through (exclusive).
    current_tick: u64,
    slots: Vec<Vec<Entry<T>>>, // LEVELS * SLOTS
    pending: usize,
    /// The earliest pending deadline tick (`u64::MAX` when none).
    earliest: u64,
}

impl<T> TimerWheel<T> {
    /// A wheel starting at `start` with the given tick granularity.
    #[must_use]
    pub fn new(start: Timestamp, tick_us: u64) -> TimerWheel<T> {
        let tick_us = tick_us.max(1);
        let mut slots = Vec::with_capacity(LEVELS * SLOTS);
        for _ in 0..LEVELS * SLOTS {
            slots.push(Vec::new());
        }
        TimerWheel {
            tick_us,
            current_tick: start.micros() / tick_us,
            slots,
            pending: 0,
            earliest: u64::MAX,
        }
    }

    /// A wheel with the engine's default 1 ms granularity.
    #[must_use]
    pub fn with_default_tick(start: Timestamp) -> TimerWheel<T> {
        TimerWheel::new(start, 1_000)
    }

    /// Timers currently scheduled.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Tick granularity in microseconds.
    #[must_use]
    pub fn tick_us(&self) -> u64 {
        self.tick_us
    }

    fn slot_for(&self, deadline_tick: u64) -> usize {
        // Past-due entries land in the immediate next level-0 slot.
        let delta = deadline_tick.saturating_sub(self.current_tick).max(1);
        let mut level = 0usize;
        let mut span = SLOTS as u64;
        while level + 1 < LEVELS && delta >= span {
            level += 1;
            span *= SLOTS as u64;
        }
        let unit = span / SLOTS as u64;
        let idx = (deadline_tick / unit) as usize % SLOTS;
        level * SLOTS + idx
    }

    /// Schedule `item` to fire at `at`.
    pub fn schedule(&mut self, at: Timestamp, item: T) {
        let deadline_tick = at
            .micros()
            .div_ceil(self.tick_us)
            .max(self.current_tick + 1);
        let slot = self.slot_for(deadline_tick);
        self.slots[slot].push(Entry {
            deadline_tick,
            item,
        });
        self.pending += 1;
        self.earliest = self.earliest.min(deadline_tick);
    }

    /// Advance the wheel to `now`, appending every expired item to
    /// `out` (in coarse tick order).
    pub fn advance(&mut self, now: Timestamp, out: &mut Vec<T>) {
        let target = now.micros() / self.tick_us;
        if target <= self.current_tick {
            return;
        }
        self.step_to(target, out);
        // Every entry due by the current tick has fired: if the earliest
        // was among them, find the new one.
        if self.earliest <= self.current_tick {
            self.earliest = self
                .slots
                .iter()
                .flatten()
                .map(|e| e.deadline_tick)
                .min()
                .unwrap_or(u64::MAX);
        }
    }

    /// Step the clock tick by tick to `target`, firing and cascading.
    fn step_to(&mut self, target: u64, out: &mut Vec<T>) {
        if self.pending == 0 {
            self.current_tick = target;
            return;
        }
        while self.current_tick < target {
            self.current_tick += 1;
            let tick = self.current_tick;
            // Fire level 0.
            let slot0 = tick as usize % SLOTS;
            if !self.slots[slot0].is_empty() {
                let drained: Vec<Entry<T>> = std::mem::take(&mut self.slots[slot0]);
                for e in drained {
                    if e.deadline_tick <= tick {
                        self.pending -= 1;
                        out.push(e.item);
                    } else {
                        // A future lap of this ring: re-place.
                        let slot = self.slot_for(e.deadline_tick);
                        self.slots[slot].push(e);
                    }
                }
            }
            // Cascade higher levels at their slot boundaries.
            let mut unit = SLOTS as u64;
            for level in 1..LEVELS {
                if !tick.is_multiple_of(unit) {
                    break;
                }
                let idx = (tick / unit) as usize % SLOTS;
                let slot = level * SLOTS + idx;
                if !self.slots[slot].is_empty() {
                    let drained: Vec<Entry<T>> = std::mem::take(&mut self.slots[slot]);
                    for e in drained {
                        if e.deadline_tick <= tick {
                            self.pending -= 1;
                            out.push(e.item);
                        } else {
                            let slot = self.slot_for(e.deadline_tick);
                            self.slots[slot].push(e);
                        }
                    }
                }
                unit *= SLOTS as u64;
            }
            // Nothing left: skip the dead ticks in O(1).
            if self.pending == 0 {
                self.current_tick = target;
                return;
            }
        }
    }

    /// Earliest scheduled deadline, if any: exact, and O(1) — the
    /// cached minimum, not a walk of the slots.
    #[must_use]
    pub fn next_deadline(&self) -> Option<Timestamp> {
        (self.earliest != u64::MAX).then(|| Timestamp::from_micros(self.earliest * self.tick_us))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(ms: u64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    #[test]
    fn fires_in_order_across_levels() {
        let mut w = TimerWheel::with_default_tick(Timestamp::ZERO);
        // Deadlines spanning level 0 (<64 ms), level 1 (<4.096 s),
        // level 2 (<262 s) and level 3.
        let deadlines = [
            5u64, 40, 63, 64, 100, 4_000, 4_096, 10_000, 300_000, 500_000,
        ];
        for &d in &deadlines {
            w.schedule(ts(d), d);
        }
        assert_eq!(w.pending(), deadlines.len());
        let mut fired = Vec::new();
        w.advance(ts(600_000), &mut fired);
        assert_eq!(w.pending(), 0);
        let mut expected = deadlines.to_vec();
        expected.sort_unstable();
        let mut got = fired.clone();
        got.sort_unstable();
        assert_eq!(got, expected, "every timer fires exactly once");
    }

    #[test]
    fn does_not_fire_early() {
        let mut w = TimerWheel::with_default_tick(Timestamp::ZERO);
        w.schedule(ts(100), "late");
        w.schedule(ts(10), "early");
        let mut fired = Vec::new();
        w.advance(ts(50), &mut fired);
        assert_eq!(fired, vec!["early"]);
        assert_eq!(w.next_deadline(), Some(ts(100)));
        w.advance(ts(100), &mut fired);
        assert_eq!(fired, vec!["early", "late"]);
    }

    #[test]
    fn past_deadlines_fire_on_next_advance() {
        let mut w = TimerWheel::with_default_tick(ts(1_000));
        w.schedule(ts(500), "overdue");
        let mut fired = Vec::new();
        w.advance(ts(1_002), &mut fired);
        assert_eq!(fired, vec!["overdue"]);
    }

    #[test]
    fn idle_jump_is_cheap_and_exact() {
        let mut w: TimerWheel<u32> = TimerWheel::with_default_tick(Timestamp::ZERO);
        let mut fired = Vec::new();
        // Hours of idle virtual time with an empty wheel must not loop.
        w.advance(Timestamp::from_millis(100_000_000), &mut fired);
        assert!(fired.is_empty());
        w.schedule(Timestamp::from_millis(100_000_005), 7);
        w.advance(Timestamp::from_millis(100_000_010), &mut fired);
        assert_eq!(fired, vec![7]);
    }

    #[test]
    fn interleaved_schedule_and_advance() {
        let mut w = TimerWheel::new(Timestamp::ZERO, 100);
        let mut fired = Vec::new();
        for round in 0..50u64 {
            w.schedule(Timestamp::from_micros(round * 1_000 + 500), round);
            w.advance(Timestamp::from_micros(round * 1_000), &mut fired);
        }
        w.advance(Timestamp::from_micros(60_000), &mut fired);
        assert_eq!(fired.len(), 50);
        assert_eq!(w.pending(), 0);
    }

    /// Seeded random schedule / advance sequences against a brute-force
    /// model of the pending set. Deadlines land on every level, in the
    /// past and beyond the top level's lap. After every step
    /// `next_deadline` is the exact earliest pending deadline, and each
    /// advance fires every entry due by then exactly once and nothing
    /// that is not yet due.
    #[test]
    fn random_schedules_match_a_brute_force_model() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::HashMap;

        let slots = SLOTS as u64;
        let top_lap = slots.pow(LEVELS as u32);
        for (seed, tick_us) in [(1u64, 1_000u64), (2, 1), (3, 7)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut now = rng.gen_range(0..1_000_000u64);
            let mut w = TimerWheel::new(Timestamp::from_micros(now), tick_us);
            // Pending entries by id, at the tick they are due: a deadline
            // rounds up to a tick, and one already past is due next tick.
            let mut model: HashMap<u32, u64> = HashMap::new();
            let mut fired = Vec::new();
            for id in 0..400u32 {
                let current = now / tick_us;
                if rng.gen_bool(0.6) {
                    let ahead = match rng.gen_range(0..7) {
                        0 => None,
                        1 => Some(rng.gen_range(0..slots)),
                        2 => Some(rng.gen_range(slots..slots.pow(2))),
                        3 => Some(rng.gen_range(slots.pow(2)..slots.pow(3))),
                        4 => Some(rng.gen_range(slots.pow(3)..top_lap)),
                        5 => Some(rng.gen_range(top_lap..top_lap + 2 * slots.pow(3))),
                        _ => Some(rng.gen_range(0..4)),
                    };
                    let at = match ahead {
                        Some(ticks) => {
                            ((current + ticks) * tick_us).saturating_sub(rng.gen_range(0..tick_us))
                        }
                        None => now.saturating_sub(rng.gen_range(0..=now)),
                    };
                    w.schedule(Timestamp::from_micros(at), id);
                    model.insert(id, at.div_ceil(tick_us).max(current + 1));
                } else {
                    now += match rng.gen_range(0..10) {
                        0 => rng.gen_range(0..slots.pow(3)) * tick_us,
                        1..=3 => rng.gen_range(0..slots.pow(2)) * tick_us,
                        _ => rng.gen_range(0..4 * tick_us),
                    };
                    w.advance(Timestamp::from_micros(now), &mut fired);
                    for item in fired.drain(..) {
                        let due = model
                            .remove(&item)
                            .expect("fired once, and only if scheduled");
                        assert!(due <= now / tick_us, "entry {item} fired early");
                    }
                    assert!(
                        model.values().all(|&due| due > now / tick_us),
                        "an entry due by {now} µs did not fire"
                    );
                }
                assert_eq!(w.pending(), model.len(), "seed {seed}");
                let earliest = model
                    .values()
                    .min()
                    .map(|&t| Timestamp::from_micros(t * tick_us));
                assert_eq!(w.next_deadline(), earliest, "seed {seed}, step {id}");
            }
            // Drain: everything left, the top lap's overflow included.
            if let Some(&last) = model.values().max() {
                w.advance(Timestamp::from_micros(last * tick_us), &mut fired);
            }
            for item in fired.drain(..) {
                model
                    .remove(&item)
                    .expect("fired once, and only if scheduled");
            }
            assert!(model.is_empty(), "seed {seed}: {} never fired", model.len());
            assert_eq!((w.pending(), w.next_deadline()), (0, None));
        }
    }
}
