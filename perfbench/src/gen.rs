//! Seeded input generation. Every input the program sees is made here from
//! `--seed` with the benchmark's own generator, so a change to the
//! program's RNG cannot change the workload. Sizes and shapes are fixed
//! tables; the seed picks geometry seeds, probabilities and delta choices.

/// SplitMix64, one stream per purpose.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A scenario seed: small enough to read in a log line.
    fn scenario_seed(&mut self) -> u64 {
        self.next_u64() % 1_000_000_007
    }

    /// A probability with two decimals in `[lo, hi]`.
    fn prob(&mut self, lo: f64, hi: f64) -> f64 {
        ((lo + (hi - lo) * self.unit()) * 100.0).round() / 100.0
    }
}

/// FNV-1a 64: fingerprints for assignments and inputs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

const STREAM_PLAN: u64 = 1;
const STREAM_HOT: u64 = 2;
const STREAM_MISS: u64 = 3;
const STREAM_SESSION: u64 = 4;

/// Field side and sensing radius of every large scenario.
const REGION: f64 = 2000.0;
const RADIUS: f64 = 150.0;

/// The charge pattern of one scenario.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Energy {
    /// Homogeneous `(discharge, recharge)` minutes.
    Cycle(f64, f64),
    /// A mixed fleet: three per-sensor profiles assigned cyclically.
    Fleet,
}

/// The plan batch: `(sensors, targets, energy)`, run in this order. Sizes
/// run from a few hundred sensors to one cell near n = m = 5000, with two
/// mixed fleets so the hetero grid path does real work.
pub const PLAN_CELLS: [(usize, usize, Energy); 16] = [
    (300, 150, Energy::Cycle(15.0, 45.0)),
    (400, 400, Energy::Cycle(15.0, 30.0)),
    (500, 250, Energy::Cycle(15.0, 60.0)),
    (600, 600, Energy::Cycle(15.0, 45.0)),
    (800, 200, Energy::Cycle(15.0, 30.0)),
    (800, 800, Energy::Cycle(15.0, 45.0)),
    (1000, 500, Energy::Cycle(15.0, 60.0)),
    (1200, 1000, Energy::Fleet),
    (1000, 1000, Energy::Cycle(15.0, 45.0)),
    (1200, 600, Energy::Cycle(15.0, 30.0)),
    (1500, 750, Energy::Cycle(15.0, 45.0)),
    (1500, 300, Energy::Cycle(15.0, 60.0)),
    (2000, 1000, Energy::Cycle(15.0, 45.0)),
    (2000, 2000, Energy::Fleet),
    (2500, 1250, Energy::Cycle(15.0, 30.0)),
    (5000, 5000, Energy::Cycle(15.0, 45.0)),
];

/// Cache-hot `POST /v1/schedule` scenarios: `(sensors, targets)`. They
/// are small, like a field operator's what-if queries, so the hit path's
/// own cost (mostly the preflight) is a few hundred microseconds.
pub const HOT_CELLS: [(usize, usize); 8] = [
    (8, 3),
    (10, 3),
    (12, 4),
    (12, 5),
    (14, 4),
    (16, 4),
    (18, 5),
    (20, 5),
];

/// Every cold `POST /v1/schedule` has this size; only its seed changes.
pub const MISS_CELL: (usize, usize) = (1500, 750);

/// Every session starts from a scenario of this size.
pub const SESSION_CELL: (usize, usize) = (1000, 500);
/// PATCH requests per session, one delta each.
pub const PATCHES_PER_SESSION: usize = 48;
/// One delta in `RHO_EVERY` changes ρ, mid-way through each stretch, so
/// a session's final state still comes from warm-start repairs.
const RHO_EVERY: usize = 24;

fn scenario_text(
    n: usize,
    m: usize,
    p: f64,
    energy: Energy,
    geometry: (f64, f64),
    seed: u64,
) -> String {
    let mut text = format!("sensors = {n}\ntargets = {m}\ndetection_p = {p}\n");
    match energy {
        Energy::Cycle(d, r) => {
            text.push_str(&format!("discharge_minutes = {d}\nrecharge_minutes = {r}\n"));
        }
        Energy::Fleet => text.push_str(
            "battery = 30, 60, 30\nmu_d = 120, 120, 120\nmu_r = 40, 40, 80\nsolar_eff = 1, 1, 0.5\n",
        ),
    }
    text.push_str(&format!(
        "hours = 12\nregion = {}\nradius = {}\nseed = {seed}\nscheduler = lazy\n",
        geometry.0, geometry.1
    ));
    text
}

/// One scenario of the plan batch.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanItem {
    pub n: usize,
    pub m: usize,
    pub fleet: bool,
    pub text: String,
}

pub fn plan_batch(seed: u64) -> Vec<PlanItem> {
    let mut rng = Rng::new(seed, STREAM_PLAN);
    PLAN_CELLS
        .iter()
        .map(|&(n, m, energy)| {
            let p = rng.prob(0.3, 0.5);
            let s = rng.scenario_seed();
            PlanItem {
                n,
                m,
                fleet: energy == Energy::Fleet,
                text: scenario_text(n, m, p, energy, (REGION, RADIUS), s),
            }
        })
        .collect()
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn schedule_body(text: &str) -> String {
    format!(
        "{{\"scenario\":{},\"algorithm\":\"greedy\"}}",
        json_str(text)
    )
}

/// The cache-hot request bodies, in the order the open loop cycles them.
pub fn hot_bodies(seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed, STREAM_HOT);
    HOT_CELLS
        .iter()
        .map(|&(n, m)| {
            let p = rng.prob(0.3, 0.5);
            let s = rng.scenario_seed();
            schedule_body(&scenario_text(
                n,
                m,
                p,
                Energy::Cycle(15.0, 45.0),
                (500.0, 100.0),
                s,
            ))
        })
        .collect()
}

/// The endless sequence of cold request bodies: each has a fresh scenario
/// seed, so the daemon has never seen it.
#[derive(Clone, Debug)]
pub struct MissStream(Rng);

impl MissStream {
    pub fn new(seed: u64) -> MissStream {
        MissStream(Rng::new(seed, STREAM_MISS))
    }

    pub fn next_body(&mut self) -> String {
        let (n, m) = MISS_CELL;
        let p = self.0.prob(0.3, 0.5);
        let s = self.0.scenario_seed();
        schedule_body(&scenario_text(
            n,
            m,
            p,
            Energy::Cycle(15.0, 45.0),
            (REGION, RADIUS),
            s,
        ))
    }
}

/// One session's life: the scenario it is created from and the delta
/// lines sent one per PATCH.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionScript {
    pub scenario: String,
    pub deltas: Vec<String>,
}

/// The `index`-th session of the churn stream. Deltas are generated
/// against the session's own bookkeeping (alive mask, target count, ρ),
/// so every delta is valid when applied in order.
pub fn session_script(seed: u64, index: u64) -> SessionScript {
    let mut rng = Rng::new(
        seed ^ index.wrapping_mul(0xA24B_AED4_963E_E407),
        STREAM_SESSION,
    );
    let (n, m) = SESSION_CELL;
    let p = rng.prob(0.3, 0.5);
    let scenario = scenario_text(
        n,
        m,
        p,
        Energy::Cycle(15.0, 45.0),
        (REGION, RADIUS),
        rng.scenario_seed(),
    );
    let mut alive = vec![true; n];
    let mut dead = 0usize;
    let mut targets = m;
    let mut rho3 = true;
    let mut deltas = Vec::with_capacity(PATCHES_PER_SESSION);
    while deltas.len() < PATCHES_PER_SESSION {
        let r = rng.unit();
        let line = if deltas.len() % RHO_EVERY == RHO_EVERY / 2 {
            // The rare weather change: a new period shape, which the
            // repair engine answers with a full re-solve. Its place is
            // fixed so every seed has the same share of full repairs.
            rho3 = !rho3;
            if rho3 {
                "rho 15 45".to_string()
            } else {
                "rho 15 30".to_string()
            }
        } else if r < 0.33 || (r < 0.55 && dead == 0) {
            if dead * 2 >= n {
                continue;
            }
            let v = pick(&mut rng, &alive, true);
            alive[v] = false;
            dead += 1;
            format!("remove_sensor {v}")
        } else if r < 0.55 {
            let v = pick(&mut rng, &alive, false);
            alive[v] = true;
            dead -= 1;
            format!("add_sensor {v}")
        } else if r < 0.80 {
            format!("reweight {} {}", rng.below(targets), rng.prob(0.2, 0.7))
        } else if r < 0.90 {
            let k = 4 + rng.below(9);
            let mut cover: Vec<usize> = (0..k).map(|_| rng.below(n)).collect();
            cover.sort_unstable();
            cover.dedup();
            targets += 1;
            let members: Vec<String> = cover.iter().map(ToString::to_string).collect();
            format!("add_target {} {}", rng.prob(0.2, 0.7), members.join(" "))
        } else {
            if targets == 1 {
                continue;
            }
            targets -= 1;
            format!("remove_target {}", rng.below(targets + 1))
        };
        deltas.push(line);
    }
    SessionScript { scenario, deltas }
}

/// A uniformly chosen sensor whose alive flag equals `want`.
fn pick(rng: &mut Rng, alive: &[bool], want: bool) -> usize {
    loop {
        let v = rng.below(alive.len());
        if alive[v] == want {
            return v;
        }
    }
}

/// The body of a `PUT /v1/scenario`.
pub fn put_body(script: &SessionScript) -> String {
    format!("{{\"scenario\":{}}}", json_str(&script.scenario))
}

/// The body of a one-delta `PATCH /v1/scenario/{id}`.
pub fn patch_body(delta: &str) -> String {
    format!("{{\"deltas\":{}}}", json_str(&format!("{delta}\n")))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every input the benchmark sends, for a seed, as one byte string.
    fn all_inputs(seed: u64) -> Vec<String> {
        let mut out: Vec<String> = plan_batch(seed).into_iter().map(|i| i.text).collect();
        out.extend(hot_bodies(seed));
        let mut misses = MissStream::new(seed);
        out.extend((0..16).map(|_| misses.next_body()));
        for i in 0..4 {
            let s = session_script(seed, i);
            out.push(put_body(&s));
            out.extend(s.deltas.iter().map(|d| patch_body(d)));
        }
        out
    }

    /// The shape of an input: its bytes with every digit run and every
    /// probability replaced, plus the sizes it names.
    fn shape(input: &str) -> String {
        let mut out = String::new();
        let mut in_num = false;
        for c in input.chars() {
            if c.is_ascii_digit() || c == '.' {
                if !in_num {
                    out.push('#');
                }
                in_num = true;
            } else {
                in_num = false;
                out.push(c);
            }
        }
        out
    }

    fn sizes(input: &str) -> Vec<String> {
        input
            .split("\\n")
            .flat_map(|l| l.split('\n'))
            .filter(|l| l.contains("sensors =") || l.contains("targets ="))
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn same_seed_regenerates_identical_bytes() {
        assert_eq!(all_inputs(7), all_inputs(7));
        assert_eq!(all_inputs(0), all_inputs(0));
    }

    #[test]
    fn other_seed_keeps_sizes_and_shape_but_changes_bytes() {
        let a = all_inputs(1);
        let b = all_inputs(2);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(sizes(x), sizes(y));
        }
        // Scenario inputs keep their shape exactly; delta streams keep
        // their length but choose other operations.
        let scenarios = PLAN_CELLS.len() + HOT_CELLS.len() + 16;
        for (x, y) in a.iter().zip(&b).take(scenarios) {
            assert_eq!(shape(x), shape(y));
            assert_ne!(x, y);
        }
        assert_ne!(a[scenarios..], b[scenarios..]);
    }

    #[test]
    fn plan_batch_spans_the_sizes_it_promises() {
        let batch = plan_batch(3);
        assert_eq!(batch.len(), PLAN_CELLS.len());
        assert!(batch.iter().any(|i| i.n == 5000 && i.m == 5000));
        assert_eq!(batch.iter().filter(|i| i.fleet).count(), 2);
        assert!(batch.iter().all(|i| i.text.contains("scheduler = lazy")));
    }

    #[test]
    fn session_deltas_stay_valid_against_their_bookkeeping() {
        use cool_scenario::Scenario;
        use cool_session::{Delta, SessionInstance};
        // A small universe stands in for the real one: the bookkeeping is
        // what is under test, and apply() rejects any invalid delta.
        for index in 0..6 {
            let script = session_script(11, index);
            let scenario = Scenario::parse(&script.scenario).expect("generated scenario parses");
            let mut instance = SessionInstance::from_scenario(&scenario).expect("instance builds");
            for line in &script.deltas {
                let delta = Delta::parse(line).expect("delta parses");
                instance
                    .apply(&delta)
                    .unwrap_or_else(|e| panic!("{line}: {e}"));
            }
        }
    }

    #[test]
    fn json_strings_escape_newlines_and_quotes() {
        assert_eq!(json_str("a\n\"b\"\\"), "\"a\\n\\\"b\\\"\\\\\"");
    }
}
