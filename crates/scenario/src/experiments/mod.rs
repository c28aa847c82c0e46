//! Experiment implementations, one module per paper figure / table /
//! extension. Each enumerates its sweep points, evaluates them through
//! [`run_sweep`], prints a table and emits its JSON artifacts; the
//! parameters arrive from a [`crate::spec::Experiment`] value.

use crate::executor::{Sweep, SweepCtx};
use crate::runner::BenchOpts;

pub(crate) mod ablations;
pub(crate) mod faults;
pub(crate) mod fig2;
pub(crate) mod fig4;
pub(crate) mod fig5;
pub(crate) mod fig6;
pub(crate) mod fig7;
pub(crate) mod fig8;
pub(crate) mod fig9;
pub(crate) mod mt;
pub(crate) mod oracle;
pub(crate) mod table2;
pub(crate) mod wc;
pub(crate) mod x1;
pub(crate) mod x2;
pub(crate) mod x3;
pub(crate) mod x4;

/// Runs a figure's sweep on the worker pool, honouring `--threads`;
/// results come back in point order, byte-identical for any worker
/// count.
pub(crate) fn run_sweep<P, R, F>(s: Sweep<P>, opts: &BenchOpts, f: F) -> Vec<R>
where
    P: Sync,
    R: Send,
    F: Fn(&P, SweepCtx) -> R + Sync,
{
    match opts.threads {
        Some(n) => s.threads(n),
        None => s,
    }
    .run(f)
}
