//! Facade crate for the xUI reproduction workspace.
#![forbid(unsafe_code)]
pub use xui_accel as accel;
pub use xui_core as core;
pub use xui_des as des;
pub use xui_faults as faults;
pub use xui_kernel as kernel;
pub use xui_net as net;
pub use xui_oracle as oracle;
pub use xui_runtime as runtime;
pub use xui_scenario as scenario;
pub use xui_sim as sim;
pub use xui_telemetry as telemetry;
pub use xui_workloads as workloads;
