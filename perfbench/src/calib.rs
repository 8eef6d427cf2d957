//! A fixed native kernel that measures how fast the host runs right now.
//!
//! The benchmark shares its CPUs with other tenants, whose load makes the
//! same work take 1.3–2× as long from one minute to the next. The kernel
//! is timed on the same CPU just before each piece of measured work, so
//! the two slow down together, and the benchmark scales the work's time
//! by `REFERENCE_MS / kernel time`: the time the work would have taken on
//! a host where the kernel takes [`REFERENCE_MS`].
//!
//! The kernel does the kind of work an interpreter does — a dispatch loop
//! over a small instruction array with a value stack, and a recursive
//! call tree — in plain Rust, so no change to the repository's crates
//! changes its cost.

use crate::sys;
use std::hint::black_box;
use std::time::Instant;

/// Kernel time, in milliseconds, of the host the scaled times refer to.
/// On a 2.1 GHz Xeon vCPU shared with other tenants the kernel took
/// 2.5–4.3 ms, with a median near 3.4 ms.
pub const REFERENCE_MS: f64 = 3.0;

/// Host speed on the CPUs some work runs on, measured by the kernel
/// between consecutive pieces of that work.
pub struct HostSpeed {
    cpus: Vec<usize>,
    /// Every kernel time measured so far, oldest first.
    pub kernel_ms: Vec<f64>,
}

impl HostSpeed {
    /// Measure the speed of `cpus` before the first piece of work.
    pub fn start(cpus: &[usize]) -> Result<HostSpeed, String> {
        let mut h = HostSpeed {
            cpus: cpus.to_vec(),
            kernel_ms: Vec::new(),
        };
        let k = h.measure()?;
        h.kernel_ms.push(k);
        Ok(h)
    }

    /// The mean kernel time over `cpus`, run on all of them at once with
    /// one pinned thread each, as multi-threaded work uses them.
    fn measure(&self) -> Result<f64, String> {
        let times = std::thread::scope(|s| {
            let threads: Vec<_> = self
                .cpus
                .iter()
                .map(|&cpu| s.spawn(move || sys::set_affinity(&[cpu]).map(|()| kernel_ms())))
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("the kernel does not panic"))
                .collect::<Result<Vec<f64>, String>>()
        })?;
        Ok(times.iter().sum::<f64>() / times.len() as f64)
    }

    /// Measure the host speed after a piece of work and return the factor
    /// that scales the work's time to the reference host: [`REFERENCE_MS`]
    /// over the mean kernel time just before and just after it.
    pub fn scale(&mut self) -> Result<f64, String> {
        let before = *self.kernel_ms.last().expect("start measured the kernel");
        let after = self.measure()?;
        self.kernel_ms.push(after);
        Ok(REFERENCE_MS / ((before + after) / 2.0))
    }
}

#[derive(Clone, Copy)]
enum Op {
    Push(i64),
    Load(usize),
    Store(usize),
    Add,
    Mul,
    Rem,
    /// Decrement local 0 and jump to the target while it stays positive.
    Loop(usize),
    Halt,
}

/// `acc = (acc * 31 + i) % 1000003` for `i` counting down from `n`.
fn program(n: i64) -> Vec<Op> {
    use Op::*;
    vec![
        Push(n),
        Store(0),
        Push(1),
        Store(1),
        // Loop body.
        Load(1),
        Push(31),
        Mul,
        Load(0),
        Add,
        Push(1_000_003),
        Rem,
        Store(1),
        Loop(4),
        Halt,
    ]
}

fn interpret(code: &[Op]) -> i64 {
    let mut stack = Vec::with_capacity(16);
    let mut locals = [0i64; 2];
    let mut pc = 0;
    loop {
        match code[pc] {
            Op::Push(v) => stack.push(v),
            Op::Load(i) => stack.push(locals[i]),
            Op::Store(i) => locals[i] = stack.pop().unwrap_or(0),
            Op::Add | Op::Mul | Op::Rem => {
                let b = stack.pop().unwrap_or(0);
                let a = stack.pop().unwrap_or(0);
                stack.push(match code[pc] {
                    Op::Add => a + b,
                    Op::Mul => a * b,
                    _ => a % b,
                });
            }
            Op::Loop(target) => {
                locals[0] -= 1;
                if locals[0] > 0 {
                    pc = target;
                    continue;
                }
            }
            Op::Halt => return locals[1],
        }
        pc += 1;
    }
}

fn tree(depth: u32, v: u64) -> u64 {
    if depth == 0 {
        return v % 13 + 1;
    }
    black_box(tree(depth - 1, v * 2 + 1)) + tree(depth - 1, v * 2 + 2)
}

/// Run the kernel once and return its time in milliseconds.
pub fn kernel_ms() -> f64 {
    let code = program(black_box(100_000));
    let t = Instant::now();
    black_box(interpret(black_box(&code)));
    black_box(tree(black_box(16), black_box(7)));
    t.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_reference_over_mean_kernel_time() {
        let cpu = sys::allowed_cpus().expect("allowed CPUs")[0];
        let mut speed = HostSpeed::start(&[cpu]).expect("pin to an allowed CPU");
        let scale = speed.scale().expect("pin to an allowed CPU");
        let [before, after] = speed.kernel_ms[..] else {
            panic!("expected two kernel times, got {:?}", speed.kernel_ms);
        };
        assert!(before > 0.0 && after > 0.0);
        assert_eq!(scale, REFERENCE_MS / ((before + after) / 2.0));
    }

    #[test]
    fn measures_every_allowed_cpu_at_once() {
        let cpus = sys::allowed_cpus().expect("allowed CPUs");
        let mut speed = HostSpeed::start(&cpus).expect("pin to allowed CPUs");
        let scale = speed.scale().expect("pin to allowed CPUs");
        assert!(scale.is_finite() && scale > 0.0);
        assert_eq!(speed.kernel_ms.len(), 2);
    }
}
