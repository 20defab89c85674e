//! # hetsim-stats: declarative event-counter structs
//!
//! Every figure of HetCore (ISCA 2018) is derived from event counters —
//! committed operations, register-file traffic, cache hits — that the
//! McPAT-style power models consume. Before this crate, each simulator
//! hand-rolled its counter struct together with 25-line `merge`/`minus`
//! field lists that silently drifted whenever a field was added.
//!
//! The [`counters!`] macro replaces those field lists with a single
//! declaration. For each struct it generates:
//!
//! * the struct itself (`u64` scalar counters, plus *nested groups* —
//!   fields whose type is another `counters!` struct), with
//!   `Debug`/`Clone`/`Copy`/`Default`/`PartialEq`/`Eq` derived;
//! * [`merge`](#merge--minus) and [`minus`](#merge--minus) with
//!   per-field policies declared in the struct definition;
//! * enumeration: `visit` / `iter()` over `(name, value)` pairs (nested
//!   groups contribute dotted names like `"il1.accesses"`), plus
//!   `get`/`set` by dotted name;
//! * `serde` support (the workspace's vendored subset): structs map to
//!   objects with one entry per field in declaration order.
//!
//! Adding a counter is a one-line change, visible everywhere at once —
//! power accounting, run reports, the result cache and campaign
//! telemetry — with merge/minus correctness guaranteed by construction.
//!
//! ## Merge & minus
//!
//! Counters are aggregated two ways, and the two are **not** symmetric:
//!
//! * `merge(&mut self, other)` folds another run's counters in — used
//!   for multicore totals, where event counts add but `cycles` takes
//!   the max (cores run in parallel);
//! * `minus(&self, baseline) -> Self` subtracts a warmup snapshot —
//!   event counts subtract (saturating: a snapshot taken mid-flight can
//!   exceed the final count for in-flight work, and wrapping would be a
//!   silent catastrophe in release builds), while `cycles`/`committed`
//!   are kept for the caller to recompute.
//!
//! Both policies are declared per field, so the asymmetry is explicit
//! rather than tribal knowledge:
//!
//! ```
//! use hetsim_stats::counters;
//!
//! counters! {
//!     /// Counters of a toy pipeline.
//!     pub struct ToyStats {
//!         /// Cycles: parallel merges take the max; warmup subtraction
//!         /// keeps the running value (the caller recomputes it).
//!         pub cycles: u64 = max / keep,
//!         /// Committed ops: sums across cores, kept across minus.
//!         pub committed: u64 = sum / keep,
//!         /// Plain event count (default policy: `sum / sub`).
//!         pub loads: u64,
//!     }
//! }
//!
//! let mut a = ToyStats { cycles: 100, committed: 10, loads: 7 };
//! let b = ToyStats { cycles: 80, committed: 20, loads: 5 };
//! a.merge(&b);
//! assert_eq!((a.cycles, a.committed, a.loads), (100, 30, 12));
//! let names: Vec<String> = a.iter().map(|(n, _)| n).collect();
//! assert_eq!(names, ["cycles", "committed", "loads"]);
//! ```
//!
//! Scalar policies: `merge` is one of `sum` (default), `max`, `keep`;
//! `minus` is one of `sub` (default, saturating) or `keep`. Nested
//! groups take no annotation — they always delegate field-wise.

#![warn(missing_docs)]

// Callers reach the vendored serde through `$crate::serde` inside the
// macro expansion, so they don't need their own serde dependency.
#[doc(hidden)]
pub use serde;

pub mod attribution;
pub mod diff;
pub mod histogram;
pub mod pareto;

pub use attribution::{ClassCounts, CycleClass};
pub use histogram::Histogram;
pub use pareto::{dominates, frontier_indices};

/// Defines one counter struct with derived `merge`, `minus`,
/// enumeration and serde support.
///
/// See the [crate docs](crate) for the grammar and the policy table.
/// Fields are either scalar counters (`name: u64`, optionally annotated
/// `= merge_policy / minus_policy`) or nested groups (`name: OtherStats`
/// where `OtherStats` is itself defined via `counters!`).
#[macro_export]
macro_rules! counters {
    (
        $(#[$sattr:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$fattr:meta])*
                $fvis:vis $field:ident : $ftype:tt $(= $mpol:ident / $dpol:ident)?
            ),* $(,)?
        }
    ) => {
        $(#[$sattr])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $vis struct $name {
            $(
                $(#[$fattr])*
                $fvis $field: $ftype,
            )*
        }

        impl $name {
            /// Folds another set of counters into this one, field by
            /// field, honoring each field's declared merge policy
            /// (`sum`, `max` or `keep`; nested groups delegate).
            pub fn merge(&mut self, other: &$name) {
                $( $crate::counters!(@merge self, other, $field, $ftype, [$($mpol)?]); )*
            }

            /// Counter-wise difference `self - baseline` (for warmup
            /// snapshots), honoring each field's declared minus policy:
            /// `sub` fields subtract saturating at zero (a snapshot can
            /// exceed the final count for in-flight work; wrapping
            /// would be a silent catastrophe in release builds), `keep`
            /// fields retain `self`'s value for the caller to
            /// recompute, and nested groups delegate.
            #[must_use]
            pub fn minus(&self, baseline: &$name) -> $name {
                $name {
                    $( $field: $crate::counters!(@minus self, baseline, $field, $ftype, [$($dpol)?]), )*
                }
            }

            /// Calls `visit(name, value)` for every scalar counter in
            /// declaration order. Names are prefixed with `prefix`;
            /// nested groups extend the prefix with `"<field>."`.
            pub fn visit(&self, prefix: &str, visit: &mut dyn FnMut(&str, u64)) {
                $( $crate::counters!(@visit self, prefix, visit, $field, $ftype); )*
            }

            /// Iterates over `(name, value)` pairs in declaration
            /// order. Nested groups contribute dotted names, e.g.
            /// `"il1.accesses"`. Names are unique within a struct.
            pub fn iter(&self) -> ::std::vec::IntoIter<(::std::string::String, u64)> {
                let mut out = ::std::vec::Vec::new();
                self.visit("", &mut |name, value| out.push((name.to_string(), value)));
                out.into_iter()
            }

            /// Looks up one counter by its dotted name.
            pub fn get(&self, name: &str) -> ::std::option::Option<u64> {
                $( $crate::counters!(@get self, name, $field, $ftype); )*
                ::std::option::Option::None
            }

            /// Sets one counter by its dotted name; returns `false` if
            /// no such counter exists.
            pub fn set(&mut self, name: &str, value: u64) -> bool {
                $( $crate::counters!(@set self, name, value, $field, $ftype); )*
                false
            }
        }

        impl $crate::serde::Serialize for $name {
            fn to_value(&self) -> $crate::serde::value::Value {
                $crate::serde::value::Value::Object(::std::vec![
                    $(
                        (
                            ::std::string::String::from(stringify!($field)),
                            $crate::serde::Serialize::to_value(&self.$field),
                        ),
                    )*
                ])
            }
        }

        impl $crate::serde::Deserialize for $name {
            fn from_value(
                v: &$crate::serde::value::Value,
            ) -> ::std::result::Result<Self, $crate::serde::Error> {
                ::std::result::Result::Ok($name {
                    $(
                        $field: $crate::serde::__private::field::<$ftype>(
                            v,
                            stringify!($field),
                            stringify!($name),
                        )?,
                    )*
                })
            }
        }
    };

    // ---- per-field merge: sum (default) / max / keep / group ----
    (@merge $s:ident, $o:ident, $f:ident, u64, []) => { $s.$f += $o.$f; };
    (@merge $s:ident, $o:ident, $f:ident, u64, [sum]) => { $s.$f += $o.$f; };
    (@merge $s:ident, $o:ident, $f:ident, u64, [max]) => { $s.$f = $s.$f.max($o.$f); };
    (@merge $s:ident, $o:ident, $f:ident, u64, [keep]) => {};
    (@merge $s:ident, $o:ident, $f:ident, $group:ident, []) => { $s.$f.merge(&$o.$f); };

    // ---- per-field minus: sub (default, saturating) / keep / group ----
    (@minus $s:ident, $b:ident, $f:ident, u64, []) => { $s.$f.saturating_sub($b.$f) };
    (@minus $s:ident, $b:ident, $f:ident, u64, [sub]) => { $s.$f.saturating_sub($b.$f) };
    (@minus $s:ident, $b:ident, $f:ident, u64, [keep]) => { $s.$f };
    (@minus $s:ident, $b:ident, $f:ident, $group:ident, []) => { $s.$f.minus(&$b.$f) };

    // ---- enumeration ----
    (@visit $s:ident, $p:ident, $v:ident, $f:ident, u64) => {
        $v(&::std::format!("{}{}", $p, stringify!($f)), $s.$f);
    };
    (@visit $s:ident, $p:ident, $v:ident, $f:ident, $group:ident) => {
        $s.$f
            .visit(&::std::format!("{}{}.", $p, stringify!($f)), $v);
    };
    (@get $s:ident, $n:ident, $f:ident, u64) => {
        if $n == stringify!($f) {
            return ::std::option::Option::Some($s.$f);
        }
    };
    (@get $s:ident, $n:ident, $f:ident, $group:ident) => {
        if let ::std::option::Option::Some(rest) =
            $n.strip_prefix(concat!(stringify!($f), "."))
        {
            return $s.$f.get(rest);
        }
    };
    (@set $s:ident, $n:ident, $val:ident, $f:ident, u64) => {
        if $n == stringify!($f) {
            $s.$f = $val;
            return true;
        }
    };
    (@set $s:ident, $n:ident, $val:ident, $f:ident, $group:ident) => {
        if let ::std::option::Option::Some(rest) =
            $n.strip_prefix(concat!(stringify!($f), "."))
        {
            return $s.$f.set(rest, $val);
        }
    };
}

#[cfg(test)]
mod tests {
    use serde::{Deserialize, Serialize};

    counters! {
        /// Inner group.
        pub struct Inner {
            /// Accesses.
            pub accesses: u64,
            /// Hits.
            pub hits: u64,
        }
    }

    counters! {
        /// Outer struct exercising every policy and nesting.
        pub struct Outer {
            /// Max-merged, kept on minus.
            pub cycles: u64 = max / keep,
            /// Sum-merged, kept on minus.
            pub committed: u64 = sum / keep,
            /// Default: sum / sub.
            pub loads: u64,
            /// Nested group.
            pub l1: Inner,
        }
    }

    fn sample() -> Outer {
        Outer {
            cycles: 100,
            committed: 40,
            loads: 30,
            l1: Inner {
                accesses: 20,
                hits: 15,
            },
        }
    }

    #[test]
    fn merge_honors_policies() {
        let mut a = sample();
        let b = Outer {
            cycles: 80,
            committed: 2,
            loads: 3,
            l1: Inner {
                accesses: 4,
                hits: 5,
            },
        };
        a.merge(&b);
        assert_eq!(a.cycles, 100, "max");
        assert_eq!(a.committed, 42, "sum");
        assert_eq!(a.loads, 33, "sum (default)");
        assert_eq!(a.l1.accesses, 24, "group delegates");
        assert_eq!(a.l1.hits, 20);
    }

    #[test]
    fn minus_honors_policies_and_saturates() {
        let a = sample();
        let b = Outer {
            loads: 7,
            l1: Inner {
                hits: 999, // snapshot beyond the final count
                ..Inner::default()
            },
            ..Outer::default()
        };
        let d = a.minus(&b);
        assert_eq!(d.cycles, 100, "keep");
        assert_eq!(d.committed, 40, "keep");
        assert_eq!(d.loads, 23, "sub");
        assert_eq!(d.l1.hits, 0, "saturates instead of wrapping");
        assert_eq!(d.l1.accesses, 20);
    }

    #[test]
    fn iter_yields_dotted_names_in_declaration_order() {
        let names: Vec<String> = sample().iter().map(|(n, _)| n).collect();
        assert_eq!(
            names,
            ["cycles", "committed", "loads", "l1.accesses", "l1.hits"]
        );
    }

    #[test]
    fn groups_enumerate_standalone_too() {
        let names: Vec<String> = sample().l1.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["accesses", "hits"]);
    }

    #[test]
    fn get_and_set_address_by_dotted_name() {
        let mut s = sample();
        assert_eq!(s.get("cycles"), Some(100));
        assert_eq!(s.get("l1.hits"), Some(15));
        assert_eq!(s.get("nope"), None);
        assert_eq!(s.get("l1.nope"), None);
        assert!(s.set("l1.accesses", 77));
        assert_eq!(s.l1.accesses, 77);
        assert!(!s.set("nope", 1));
    }

    #[test]
    fn serde_round_trips() {
        let s = sample();
        let back = Outer::from_value(&s.to_value()).expect("round trip");
        assert_eq!(back, s);
    }

    #[test]
    fn serialized_object_uses_field_names() {
        let v = sample().to_value();
        assert_eq!(v.get("cycles").and_then(|x| x.as_u64()), Some(100));
        assert_eq!(
            v.get("l1")
                .and_then(|l1| l1.get("hits"))
                .and_then(|x| x.as_u64()),
            Some(15)
        );
    }
}
