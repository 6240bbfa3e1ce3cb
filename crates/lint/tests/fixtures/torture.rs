//! Parser-recovery torture fixture. Everything here is a construct the
//! lossy parser does not fully model — deeply nested generics, async
//! blocks, macro invocation bodies, const generics, trait objects —
//! and the contract is that it all degrades to `Opaque` (or balanced
//! skips) with **zero findings**: lossiness must surface as false
//! negatives, never as false positives. Linted in memory, never
//! compiled.

use std::collections::BTreeMap;

type Handler = Box<dyn Fn(&[u8]) -> Result<Vec<(usize, f64)>, String> + Send + Sync>;

/// Nested generics with const parameters, bounds and a where clause.
struct Registry<const N: usize, T: Clone + Ord>
where
    T: core::fmt::Debug,
{
    routes: BTreeMap<String, Vec<Result<Handler, Box<dyn core::fmt::Debug>>>>,
    markers: [Option<T>; N],
}

impl<const N: usize, T: Clone + Ord + core::fmt::Debug> Registry<N, T> {
    /// Turbofish soup: nested generic arguments in expression position.
    fn nested_turbofish(&self) -> Vec<BTreeMap<u32, Vec<Option<&T>>>> {
        let nested = Vec::<BTreeMap<u32, Vec<Option<&T>>>>::new();
        nested
    }
}

/// Async fn with an async block and awaits inside.
async fn fetch_window(endpoint: &str) -> Result<Vec<f64>, String> {
    let staged = async move {
        let attempt = connect(endpoint).await?;
        decode(attempt).await
    };
    staged.await
}

/// An async block nested inside a closure inside a sync fn.
fn schedule_refresh() -> impl FnOnce() {
    move || {
        let _task = async {
            let window = fetch_window("afe0").await;
            drop(window);
        };
    }
}

/// Macro invocation bodies are opaque: the parser must not model the
/// zero divisions and the huge exponent below as expressions.
fn macro_bodies() {
    let zero = 0.0;
    log_ratio!(1.0 / zero);
    assert_close![sensitivity.exp(), 1.0e9 / zero, epsilon = 1.0e-9];
    register_channels! {
        we: 1.0 / zero,
        ce: 1200.0.exp(),
    }
}

/// A macro definition: its body is token soup by design.
macro_rules! declare_lanes {
    ($($name:ident => $gain:expr),* $(,)?) => {
        $(fn $name() -> f64 { $gain / 0.0 })*
    };
}

declare_lanes! {
    lane_we => 0.5,
    lane_ce => 1.5,
}

/// Pattern-heavy match with guards, bindings, slices and ranges.
fn classify(samples: &[f64]) -> u32 {
    match samples {
        [] => 0,
        [first, .., last] if first < last => 1,
        [_only] => 2,
        rest @ [..] => rest.len() as u32,
    }
}
