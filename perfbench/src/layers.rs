//! Host-time accounting by layer, taken from outside the program: each
//! timer wraps one call into a crate's public entry point.

use std::collections::BTreeMap;
use std::time::Instant;

/// Accumulated self time per layer. A switched-off accumulator runs the
/// wrapped calls without reading the clock, so plain passes pay nothing.
#[derive(Debug, Default)]
pub struct Layers {
    on: bool,
    secs: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// An accumulator that records nothing.
    pub fn off() -> Layers {
        Layers::default()
    }

    /// An accumulator that times every wrapped call.
    pub fn on() -> Layers {
        Layers {
            on: true,
            secs: BTreeMap::new(),
        }
    }

    /// Runs `f`, charging its wall time to `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let out = f();
        *self.secs.entry(layer).or_default() += t.elapsed().as_secs_f64();
        out
    }

    /// Seconds charged to `layer` so far.
    pub fn get(&self, layer: &str) -> f64 {
        self.secs.get(layer).copied().unwrap_or(0.0)
    }

    /// Seconds charged to all layers.
    pub fn total(&self) -> f64 {
        self.secs.values().sum()
    }

    /// Every layer with its seconds.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.secs.iter().map(|(k, v)| (*k, *v))
    }
}

/// Records a traced run's per-layer metrics into `out`: each layer's
/// seconds per traced pass, the process CPU time `cpu` spent while
/// measuring, the median traced pass, the share of traced wall time no
/// layer accounts for (failing the run above
/// [`crate::MAX_UNATTRIBUTED`]), and the traced passes' overhead over
/// the plain passes they alternated with, not counting the cache-model
/// replay a traced `table2` pass adds.
pub fn traced_metrics(
    out: &mut crate::Outcome,
    layers: &Layers,
    traced_walls: &[f64],
    plain_walls: &[f64],
    cpu: (f64, f64),
) {
    let m = &mut out.metrics;
    let passes = traced_walls.len().max(1) as f64;
    for (layer, secs) in layers.iter() {
        m.insert(layer, secs / passes);
    }
    m.insert("proc.user_s", cpu.0);
    m.insert("proc.sys_s", cpu.1);
    let traced_total: f64 = traced_walls.iter().sum();
    let traced_med = crate::median(&mut traced_walls.to_vec());
    let plain_med = crate::median(&mut plain_walls.to_vec());
    m.insert("traced.wall_s", traced_med);
    // The detection-free cache model is extra work a traced pass adds
    // on purpose; the overhead figure is what the timers themselves cost.
    let added = layers.get("cache.model_s") / passes;
    if plain_med > 0.0 {
        m.insert(
            "traced.overhead_frac",
            (traced_med - added) / plain_med - 1.0,
        );
    }
    let unattributed = 1.0 - layers.total() / traced_total.max(f64::MIN_POSITIVE);
    m.insert("traced.unattributed_frac", unattributed);
    out.check(unattributed <= crate::MAX_UNATTRIBUTED, || {
        format!(
            "layers leave {:.1} % of the traced wall time unattributed",
            unattributed * 100.0
        )
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_off_accumulator_records_nothing() {
        let mut l = Layers::off();
        assert_eq!(l.time("x", || 7), 7);
        assert_eq!(l.total(), 0.0);
    }

    #[test]
    fn an_on_accumulator_charges_the_named_layer() {
        let mut l = Layers::on();
        l.time("x", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        assert!(l.get("x") >= 0.002);
        assert_eq!(l.get("y"), 0.0);
    }
}
