//! Fixed-capacity ring buffers for the timing model's in-flight windows.
//!
//! The simulator tracks ROB and reservation-station occupancy as FIFOs of
//! timestamps. Both are bounded by construction (an entry is popped before
//! a push whenever the window is full), so a fixed-size ring that never
//! reallocates stands in for a `VecDeque` (model-tested against one
//! below). Capacity is exact —
//! not rounded to a power of two — because ROB/RS sizes (128, 80) are
//! machine parameters, and a modulo-free wrap test keeps indexing cheap.

/// A fixed-capacity FIFO of `u64` timestamps. Pushing into a full ring
/// panics: the timing model maintains the invariant that it pops before it
/// pushes at capacity, and silently dropping an in-flight instruction
/// would corrupt occupancy accounting.
#[derive(Debug, Clone)]
pub struct Ring {
    buf: Box<[u64]>,
    /// Index of the oldest entry.
    head: usize,
    len: usize,
}

impl Ring {
    /// Creates an empty ring holding at most `cap` entries.
    pub fn with_capacity(cap: usize) -> Ring {
        assert!(cap > 0, "zero-capacity window");
        Ring {
            buf: vec![0; cap].into_boxed_slice(),
            head: 0,
            len: 0,
        }
    }

    /// Number of entries currently in flight.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entries are in flight.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The fixed capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Appends a timestamp at the tail.
    #[inline]
    pub fn push(&mut self, v: u64) {
        assert!(self.len < self.buf.len(), "ring buffer overflow");
        let mut tail = self.head + self.len;
        if tail >= self.buf.len() {
            tail -= self.buf.len();
        }
        self.buf[tail] = v;
        self.len += 1;
    }

    /// Iterates the in-flight timestamps oldest-first without draining
    /// them (snapshot serialization walks the window in FIFO order).
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.len).map(move |i| {
            let mut ix = self.head + i;
            if ix >= self.buf.len() {
                ix -= self.buf.len();
            }
            self.buf[ix]
        })
    }

    /// Removes and returns the oldest timestamp.
    #[inline]
    pub fn pop(&mut self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let v = self.buf[self.head];
        self.head += 1;
        if self.head == self.buf.len() {
            self.head = 0;
        }
        self.len -= 1;
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_with_wraparound() {
        let mut r = Ring::with_capacity(3);
        assert!(r.is_empty());
        assert_eq!(r.capacity(), 3);
        // Fill, drain partially, refill — forces head/tail to wrap several
        // times through the 3-slot buffer.
        let mut next_in = 0u64;
        let mut next_out = 0u64;
        for _ in 0..10 {
            while r.len() < 3 {
                r.push(next_in);
                next_in += 1;
            }
            assert_eq!(r.pop(), Some(next_out));
            assert_eq!(r.pop(), Some(next_out + 1));
            next_out += 2;
        }
        // Drain the tail in order.
        while let Some(v) = r.pop() {
            assert_eq!(v, next_out);
            next_out += 1;
        }
        assert_eq!(next_out, next_in);
        assert!(r.is_empty());
    }

    #[test]
    fn capacity_one() {
        let mut r = Ring::with_capacity(1);
        for i in 0..5 {
            r.push(i);
            assert_eq!(r.len(), 1);
            assert_eq!(r.pop(), Some(i));
        }
        assert_eq!(r.pop(), None);
    }

    #[test]
    #[should_panic(expected = "ring buffer overflow")]
    fn overflow_panics() {
        let mut r = Ring::with_capacity(2);
        r.push(1);
        r.push(2);
        r.push(3);
    }

    #[test]
    fn pop_before_push_at_capacity_never_overflows() {
        // The timing model's usage pattern: once the window is full, every
        // push is preceded by a pop (back-pressure).
        let mut r = Ring::with_capacity(80);
        for i in 0..1000u64 {
            if r.len() >= r.capacity() {
                let freed = r.pop().unwrap();
                assert_eq!(freed, i - 80);
            }
            r.push(i);
        }
        assert_eq!(r.len(), 80);
    }

    #[test]
    fn matches_vecdeque_model_under_the_timing_discipline() {
        use rand::rngs::StdRng;
        use rand::{Rng, RngCore, SeedableRng};
        use std::collections::VecDeque;
        // The timing model's window discipline at the ROB/RS sizes it
        // runs with (and degenerate ones): drain some entries, then pop
        // once more if full, then push.
        for cap in [1usize, 4, 8, 80, 128] {
            let mut rng = StdRng::seed_from_u64(cap as u64);
            let mut ring = Ring::with_capacity(cap);
            let mut model: VecDeque<u64> = VecDeque::with_capacity(cap);
            for step in 0..20_000u64 {
                if rng.gen_range(0..4u32) == 0 {
                    for _ in 0..rng.gen_range(0..=cap) {
                        assert_eq!(ring.pop(), model.pop_front(), "cap {cap}");
                    }
                }
                if ring.len() >= ring.capacity() {
                    assert_eq!(ring.pop(), model.pop_front(), "cap {cap}");
                }
                let v = rng.next_u64() ^ step;
                ring.push(v);
                model.push_back(v);
                assert_eq!(ring.len(), model.len(), "cap {cap}");
                assert!(ring.iter().eq(model.iter().copied()), "cap {cap}");
            }
        }
    }
}
