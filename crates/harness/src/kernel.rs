//! The detection-kernel shim the benchmark crate compiles against.
//!
//! The hardened runner ([`crate::runner`]) always dispatches windows
//! through [`hard_trace::Detector::on_batch`], and the HARD machine
//! always runs [`LaneKernel::auto`]; there is nothing left to select.
//! These items remain only because `perfbench` asserts that it runs
//! the default mode.

use hard_bloom::LaneKernel;

/// The one dispatch mode. The next benchmark PR deletes this, together
/// with perfbench's two assertions that name it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KernelMode {
    /// Windowed dispatch with the widest lane kernel the host supports.
    Auto,
}

impl KernelMode {
    /// Always true: dispatch is windowed. The next benchmark PR deletes
    /// this with [`KernelMode`].
    #[must_use]
    pub fn is_batched(self) -> bool {
        true
    }

    /// [`LaneKernel::auto`]. The next benchmark PR deletes this with
    /// [`KernelMode`].
    #[must_use]
    pub fn lane_kernel(self) -> LaneKernel {
        LaneKernel::auto()
    }
}

/// [`KernelMode::Auto`]. The next benchmark PR deletes this with
/// [`KernelMode`].
#[must_use]
pub fn installed() -> KernelMode {
    KernelMode::Auto
}
