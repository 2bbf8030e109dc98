//! The page model's LRU buffer pool (used by `store` only).
//!
//! Page accesses go through the pool; a miss charges one `io_ms` to the
//! clock and may evict the least recently used resident page. Running a
//! query against a cold pool of sufficient capacity makes the fault count
//! equal to the number of *distinct* pages touched — the quantity Yao's
//! formula estimates.

use std::collections::HashMap;

use crate::clock::{CostProfile, VirtualClock};

/// A fixed-capacity LRU page cache with fault accounting.
#[derive(Debug, Clone)]
pub struct BufferPool {
    capacity: usize,
    /// page id -> tick of last use.
    resident: HashMap<u64, u64>,
    tick: u64,
    faults: u64,
    hits: u64,
    evictions: u64,
}

impl BufferPool {
    /// Pool holding up to `capacity` pages (at least 1).
    pub fn new(capacity: usize) -> Self {
        BufferPool {
            capacity: capacity.max(1),
            resident: HashMap::new(),
            tick: 0,
            faults: 0,
            hits: 0,
            evictions: 0,
        }
    }

    /// Touch a page: on a miss, charge one I/O and make it resident,
    /// evicting the LRU page if the pool is full.
    pub fn access(&mut self, page: u64, profile: &CostProfile, clock: &mut VirtualClock) {
        self.tick += 1;
        if let Some(t) = self.resident.get_mut(&page) {
            *t = self.tick;
            self.hits += 1;
            return;
        }
        self.faults += 1;
        clock.charge(profile.io_ms);
        if self.resident.len() >= self.capacity {
            if let Some((&lru, _)) = self.resident.iter().min_by_key(|(_, &t)| t) {
                self.resident.remove(&lru);
                self.evictions += 1;
            }
        }
        self.resident.insert(page, self.tick);
    }

    /// Page faults so far.
    pub fn faults(&self) -> u64 {
        self.faults
    }

    /// Buffer hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Pages evicted so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Currently resident page count.
    #[cfg(test)]
    fn resident(&self) -> usize {
        self.resident.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (CostProfile, VirtualClock) {
        (CostProfile::object_store(), VirtualClock::new())
    }

    #[test]
    fn first_access_faults_then_hits() {
        let (p, mut clock) = setup();
        let mut b = BufferPool::new(4);
        b.access(1, &p, &mut clock);
        b.access(1, &p, &mut clock);
        assert_eq!(b.faults(), 1);
        assert_eq!(b.hits(), 1);
        assert_eq!(clock.now(), 25.0);
    }

    #[test]
    fn distinct_pages_fault_once_with_capacity() {
        let (p, mut clock) = setup();
        let mut b = BufferPool::new(100);
        for round in 0..3 {
            for page in 0..50u64 {
                b.access(page, &p, &mut clock);
            }
            let _ = round;
        }
        assert_eq!(b.faults(), 50);
        assert_eq!(clock.now(), 50.0 * 25.0);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let (p, mut clock) = setup();
        let mut b = BufferPool::new(2);
        b.access(1, &p, &mut clock);
        b.access(2, &p, &mut clock);
        b.access(1, &p, &mut clock); // 1 now more recent than 2
        b.access(3, &p, &mut clock); // evicts 2
        b.access(1, &p, &mut clock); // hit
        b.access(2, &p, &mut clock); // fault again
        assert_eq!(b.faults(), 4);
        assert_eq!(b.resident(), 2);
        assert_eq!(b.evictions(), 2);
    }

    #[test]
    fn zero_capacity_clamped() {
        let (p, mut clock) = setup();
        let mut b = BufferPool::new(0);
        b.access(1, &p, &mut clock);
        b.access(1, &p, &mut clock);
        assert_eq!(b.faults(), 1);
    }
}
