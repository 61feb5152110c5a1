//! Seeded traffic generator: one seed plus a short line of scalar
//! parameters gives a byte-identical arrival / deadline / input-index
//! schedule in a stable text format, with the parameters echoed in its
//! header.
//!
//! The generator owns its PRNG (SplitMix64) so a schedule never changes
//! because the repository's `rand` stand-in did: the serving code receives
//! only the generated arrivals and input tensors.

use std::fmt::Write as _;

/// SplitMix64: tiny, well-distributed, and fully specified here.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Exponential inter-arrival gap in microseconds at `rate_rps`.
    fn exp_gap_us(&mut self, rate_rps: f64) -> f64 {
        -(1.0 - self.unit()).ln() * 1e6 / rate_rps
    }
}

/// The scalar parameters of one schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    pub seed: u64,
    /// Length of the arrival window; `0` puts every arrival at t=0.
    pub duration_us: u64,
    /// Poisson base rate (ignored when `duration_us == 0`).
    pub rate_rps: f64,
    /// Every `burst_every_us` the rate is multiplied by `burst_mult` for
    /// `burst_len_us`; `0` = no bursts.
    pub burst_every_us: u64,
    pub burst_len_us: u64,
    pub burst_mult: f64,
    /// Relative deadline stamped on every arrival; `0` = none.
    pub deadline_us: u64,
    /// Arrivals pick one of this many distinct inputs.
    pub inputs: usize,
    /// Number of arrivals of an all-at-zero burst (`duration_us == 0`).
    pub burst_count: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    pub due_us: u64,
    pub deadline_us: u64,
    pub input: usize,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    pub params: Params,
    pub arrivals: Vec<Arrival>,
}

impl Params {
    fn rate_at(&self, t_us: f64) -> f64 {
        if self.burst_every_us > 0 && (t_us as u64 % self.burst_every_us) < self.burst_len_us {
            self.rate_rps * self.burst_mult
        } else {
            self.rate_rps
        }
    }

    /// The next instant after `t_us` at which the rate changes.
    fn next_boundary(&self, t_us: f64) -> f64 {
        if self.burst_every_us == 0 {
            return f64::INFINITY;
        }
        let every = self.burst_every_us as f64;
        let base = (t_us / every).floor() * every;
        let in_burst_end = base + self.burst_len_us as f64;
        if t_us < in_burst_end {
            in_burst_end
        } else {
            base + every
        }
    }
}

impl Schedule {
    pub fn generate(params: Params) -> Self {
        assert!(params.inputs > 0, "a schedule needs at least one input");
        let mut rng = Rng::new(params.seed);
        let mut arrivals = Vec::new();
        if params.duration_us == 0 {
            for _ in 0..params.burst_count {
                arrivals.push(Arrival {
                    due_us: 0,
                    deadline_us: params.deadline_us,
                    input: rng.below(params.inputs),
                });
            }
        } else {
            assert!(params.rate_rps > 0.0, "Poisson rate must be positive");
            let end = params.duration_us as f64;
            let mut t = 0.0f64;
            loop {
                // Piecewise-constant rate: a gap that crosses a rate change
                // restarts at the boundary, which is exact because the
                // exponential distribution is memoryless.
                let gap = rng.exp_gap_us(params.rate_at(t));
                let boundary = params.next_boundary(t);
                if t + gap > boundary {
                    t = boundary;
                    if t >= end {
                        break;
                    }
                    continue;
                }
                t += gap;
                if t >= end {
                    break;
                }
                arrivals.push(Arrival {
                    due_us: t as u64,
                    deadline_us: params.deadline_us,
                    input: rng.below(params.inputs),
                });
            }
        }
        Schedule { params, arrivals }
    }

    /// Stable text form: a two-line header echoing the parameters, then one
    /// `due_us deadline_us input` line per arrival.
    pub fn to_text(&self, workload: &str) -> String {
        let p = &self.params;
        let mut out = String::with_capacity(32 + 24 * self.arrivals.len());
        let _ = writeln!(out, "# e2e_bench schedule v1 workload={workload}");
        let _ = writeln!(
            out,
            "# seed={} duration_us={} rate_rps={} burst_every_us={} burst_len_us={} burst_mult={} deadline_us={} inputs={} burst_count={} arrivals={}",
            p.seed,
            p.duration_us,
            p.rate_rps,
            p.burst_every_us,
            p.burst_len_us,
            p.burst_mult,
            p.deadline_us,
            p.inputs,
            p.burst_count,
            self.arrivals.len()
        );
        for a in &self.arrivals {
            let _ = writeln!(out, "{} {} {}", a.due_us, a.deadline_us, a.input);
        }
        out
    }
}

/// `n` seeded input samples of `len` values each, uniform in `[-1, 1)`.
pub fn input_samples(seed: u64, n: usize, len: usize) -> Vec<Vec<f32>> {
    // A stream of its own, so adding an input never shifts the arrivals.
    let mut rng = Rng::new(seed ^ 0x1A7E_57ED_0F1D_0EA5);
    (0..n)
        .map(|_| (0..len).map(|_| (rng.unit() * 2.0 - 1.0) as f32).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poisson(seed: u64) -> Params {
        Params {
            seed,
            duration_us: 2_000_000,
            rate_rps: 300.0,
            burst_every_us: 500_000,
            burst_len_us: 50_000,
            burst_mult: 3.0,
            deadline_us: 100_000,
            inputs: 16,
            burst_count: 0,
        }
    }

    #[test]
    fn same_seed_is_byte_identical() {
        let a = Schedule::generate(poisson(7)).to_text("w");
        let b = Schedule::generate(poisson(7)).to_text("w");
        assert_eq!(a.as_bytes(), b.as_bytes());
        assert!(a.starts_with("# e2e_bench schedule v1 workload=w\n# seed=7 "));
    }

    #[test]
    fn another_seed_changes_the_schedule() {
        let a = Schedule::generate(poisson(7));
        let b = Schedule::generate(poisson(8));
        assert_ne!(a.arrivals, b.arrivals);
        assert_ne!(input_samples(7, 2, 8), input_samples(8, 2, 8));
    }

    #[test]
    fn poisson_schedule_is_sorted_bounded_and_near_its_rate() {
        let s = Schedule::generate(poisson(3));
        assert!(s.arrivals.windows(2).all(|w| w[0].due_us <= w[1].due_us));
        assert!(s
            .arrivals
            .iter()
            .all(|a| a.due_us < 2_000_000 && a.input < 16));
        // 2 s at 300/s with 10 % of the time at 3x: 720 expected.
        let n = s.arrivals.len() as f64;
        assert!((600.0..850.0).contains(&n), "{n} arrivals");
        let in_burst = s
            .arrivals
            .iter()
            .filter(|a| a.due_us % 500_000 < 50_000)
            .count() as f64;
        assert!(
            in_burst / n > 0.15,
            "bursts carry extra load: {in_burst}/{n}"
        );
    }

    #[test]
    fn zero_duration_is_one_burst_at_t0() {
        let s = Schedule::generate(Params {
            duration_us: 0,
            burst_count: 100,
            ..poisson(1)
        });
        assert_eq!(s.arrivals.len(), 100);
        assert!(s.arrivals.iter().all(|a| a.due_us == 0));
    }
}
