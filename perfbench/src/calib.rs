//! A fixed calibration kernel that tracks how fast the machine runs now.
//!
//! On a shared machine, the same call takes up to 1.6× longer while
//! neighbours load the memory system, and such spells last from seconds
//! to minutes. The kernel below does what a copying collector does —
//! build a random object graph larger than the last-level cache, trace
//! it breadth-first and copy what it reaches — so it slows down with
//! the simulator. Dividing a call's host time by the kernel's time
//! measured right around it cancels most of that drift. The kernel is
//! part of the benchmark, not of the simulator, so a change to the
//! simulator leaves it as it is.

use std::hint::black_box;
use std::time::Instant;

/// Nodes of the traced graph: 2^20 nodes, two edges each (8 MB of
/// edges, 8 MB of payload, 8 MB copied).
const NODES: usize = 1 << 20;

/// Run the kernel once; returns its host seconds.
pub fn kernel_s() -> f64 {
    let t = Instant::now();
    black_box(trace_copy(black_box(0x9e37_79b9_7f4a_7c15)));
    t.elapsed().as_secs_f64()
}

fn trace_copy(seed: u64) -> u64 {
    let mut x = seed;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % NODES as u64) as u32
    };
    let edges: Vec<u32> = (0..2 * NODES).map(|_| next()).collect();
    let payload: Vec<u64> = (0..NODES as u64).collect();
    let mut marked = vec![0u64; NODES / 64];
    let mut to_space: Vec<u64> = Vec::new();
    let mut queue = vec![0u32];
    marked[0] = 1;
    while let Some(v) = queue.pop() {
        let v = v as usize;
        to_space.push(payload[v]);
        for &e in &edges[2 * v..2 * v + 2] {
            let (word, bit) = (e as usize / 64, 1u64 << (e % 64));
            if marked[word] & bit == 0 {
                marked[word] |= bit;
                queue.push(e);
            }
        }
    }
    to_space.iter().fold(0, |a, &b| a.wrapping_add(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_reaches_most_of_the_graph() {
        // A random graph with out-degree 2 has a giant component: the
        // trace must copy most nodes, or the kernel measures nothing.
        let sum = trace_copy(0x9e37_79b9_7f4a_7c15);
        let all = (NODES as u64 - 1) * NODES as u64 / 2;
        assert!(sum > all / 2, "traced too little: {sum} of {all}");
        assert!(kernel_s() > 0.0);
    }
}
