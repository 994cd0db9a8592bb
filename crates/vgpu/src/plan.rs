//! Execution plans: multi-launch pipelines over a shared buffer table.
//!
//! Benchmarks are *pipelines* — one or more kernel launches over a set of
//! buffers (the three-phase scan is the extreme case). The approximation
//! rewriters in `paraprox-approx` transform pipelines (the scan optimization
//! changes grid sizes and swaps a kernel), and the runtime tuner executes
//! them; [`Pipeline`] is the common currency.

use paraprox_ir::{KernelId, MemSpace, Program, Scalar, Ty};

use crate::device::{ArgValue, BufferId, Device, Dim2};
use crate::error::LaunchError;
use crate::stats::LaunchStats;

/// Initial contents of a pipeline buffer.
#[derive(Debug, Clone, PartialEq)]
pub enum BufferInit {
    /// Zero-filled buffer of the given element count.
    Zeroed(usize),
    /// `f32` data.
    F32(Vec<f32>),
    /// `i32` data.
    I32(Vec<i32>),
    /// `u32` data.
    U32(Vec<u32>),
}

impl BufferInit {
    /// Element count.
    pub fn len(&self) -> usize {
        match self {
            BufferInit::Zeroed(n) => *n,
            BufferInit::F32(v) => v.len(),
            BufferInit::I32(v) => v.len(),
            BufferInit::U32(v) => v.len(),
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Declaration of one pipeline buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct BufferSpec {
    /// Debug name.
    pub name: String,
    /// Element type. [`BufferInit::Zeroed`] uses this; data inits must
    /// match it.
    pub ty: Ty,
    /// Memory space to allocate in.
    pub space: MemSpace,
    /// Initial contents.
    pub init: BufferInit,
}

impl BufferSpec {
    /// Materialize the initial contents as element bit patterns, enforcing
    /// that a data init's element type matches the declared buffer type.
    /// [`Pipeline::execute`] and the fused batch executor both allocate
    /// through this.
    pub(crate) fn init_bits(&self) -> Result<Vec<u32>, LaunchError> {
        let (found, bits) = match &self.init {
            BufferInit::Zeroed(n) => return Ok(vec![0; *n]),
            BufferInit::F32(data) => (Ty::F32, data.iter().map(|v| v.to_bits()).collect()),
            BufferInit::I32(data) => (Ty::I32, data.iter().map(|&v| v as u32).collect()),
            BufferInit::U32(data) => (Ty::U32, data.clone()),
        };
        if self.ty != found {
            return Err(LaunchError::BufferTypeMismatch {
                expected: self.ty,
                found,
            });
        }
        Ok(bits)
    }

    /// A zeroed global `f32` buffer.
    pub fn zeroed_f32(name: &str, len: usize) -> BufferSpec {
        BufferSpec::global(name, BufferInit::Zeroed(len))
    }

    /// A global buffer whose element type is its init's: that of the data,
    /// or `f32` for [`BufferInit::Zeroed`].
    pub fn global(name: &str, init: BufferInit) -> BufferSpec {
        let ty = match init {
            BufferInit::Zeroed(_) | BufferInit::F32(_) => Ty::F32,
            BufferInit::I32(_) => Ty::I32,
            BufferInit::U32(_) => Ty::U32,
        };
        BufferSpec {
            name: name.to_string(),
            ty,
            space: MemSpace::Global,
            init,
        }
    }

    /// The same spec placed in another memory space (used by the
    /// approximate-memory auto-placer to move Tolerant globals to
    /// [`MemSpace::Approx`]).
    pub fn with_space(mut self, space: MemSpace) -> BufferSpec {
        self.space = space;
        self
    }
}

/// An argument of a planned launch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlanArg {
    /// Index into the pipeline's buffer table.
    Buffer(usize),
    /// A literal scalar.
    Scalar(Scalar),
}

impl From<Scalar> for PlanArg {
    fn from(s: Scalar) -> PlanArg {
        PlanArg::Scalar(s)
    }
}

/// One planned kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchPlan {
    /// Kernel to launch.
    pub kernel: KernelId,
    /// Grid shape (blocks).
    pub grid: Dim2,
    /// Block shape (threads).
    pub block: Dim2,
    /// Arguments, one per kernel parameter.
    pub args: Vec<PlanArg>,
}

impl LaunchPlan {
    /// The launch's arguments with every buffer slot resolved through
    /// `ids`, the device buffers allocated for the pipeline's table.
    pub(crate) fn resolve_args(&self, ids: &[BufferId]) -> Vec<ArgValue> {
        self.args
            .iter()
            .map(|a| match a {
                PlanArg::Buffer(slot) => ArgValue::Buffer(ids[*slot]),
                PlanArg::Scalar(s) => ArgValue::Scalar(*s),
            })
            .collect()
    }
}

/// A full execution plan: buffers, launches, and which buffers are the
/// observable outputs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Pipeline {
    /// Buffer table.
    pub buffers: Vec<BufferSpec>,
    /// Launches, executed in order.
    pub launches: Vec<LaunchPlan>,
    /// Buffer-table indices whose final contents constitute the output.
    pub outputs: Vec<usize>,
}

/// The result of executing a pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineRun {
    /// Summed launch statistics.
    pub stats: LaunchStats,
    /// Final contents of each output buffer (in [`Pipeline::outputs`]
    /// order), converted to `f64` for metric computation.
    pub outputs: Vec<Vec<f64>>,
}

impl PipelineRun {
    /// All output buffers flattened into one vector (the form the quality
    /// metrics consume).
    pub fn flat_output(&self) -> Vec<f64> {
        self.outputs.iter().flatten().copied().collect()
    }
}

impl Pipeline {
    /// Add a buffer; returns its table index.
    pub fn add_buffer(&mut self, spec: BufferSpec) -> usize {
        self.buffers.push(spec);
        self.buffers.len() - 1
    }

    /// Replace the initial contents of a buffer (used to re-run the same
    /// plan on fresh inputs).
    ///
    /// # Panics
    ///
    /// Panics when `slot` is out of range — callers control both sides.
    pub fn set_input(&mut self, slot: usize, init: BufferInit) {
        self.buffers[slot].init = init;
    }

    /// Execute the plan on a device: allocate buffers, run every launch,
    /// read back the outputs.
    ///
    /// Buffers are freshly allocated per execution, so repeated executions
    /// are independent (the device's caches stay warm unless flushed).
    ///
    /// # Errors
    ///
    /// Propagates launch-time errors; also fails when a data init's type
    /// contradicts the buffer's declared element type.
    pub fn execute(
        &self,
        device: &mut Device,
        program: &Program,
    ) -> Result<PipelineRun, LaunchError> {
        let mut ids = Vec::with_capacity(self.buffers.len());
        for spec in &self.buffers {
            ids.push(device.alloc_bits(spec.space, spec.ty, spec.init_bits()?));
        }
        let mut stats = LaunchStats::default();
        for launch in &self.launches {
            let args = launch.resolve_args(&ids);
            stats += device.launch(program, launch.kernel, launch.grid, launch.block, &args)?;
        }
        let mut outputs = Vec::with_capacity(self.outputs.len());
        for &slot in &self.outputs {
            outputs.push(device.read_f64_lossy(ids[slot])?);
        }
        Ok(PipelineRun { stats, outputs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::DeviceProfile;
    use paraprox_ir::KernelBuilder;

    fn scale_program() -> (Program, KernelId) {
        let mut program = Program::new();
        let mut kb = KernelBuilder::new("scale");
        let data = kb.buffer("data", Ty::F32, MemSpace::Global);
        let k = kb.scalar("k", Ty::F32);
        let gid = kb.let_("gid", KernelBuilder::global_id_x());
        let v = kb.let_("v", kb.load(data, gid.clone()));
        kb.store(data, gid, v * k);
        let kid = program.add_kernel(kb.finish());
        (program, kid)
    }

    #[test]
    fn pipeline_executes_launches_in_order() {
        let (program, kid) = scale_program();
        let mut p = Pipeline::default();
        let buf = p.add_buffer(BufferSpec::global("data", BufferInit::F32(vec![1.0; 32])));
        // Two launches: x2 then x3 => x6 total.
        for k in [2.0f32, 3.0] {
            p.launches.push(LaunchPlan {
                kernel: kid,
                grid: Dim2::linear(1),
                block: Dim2::linear(32),
                args: vec![PlanArg::Buffer(buf), Scalar::F32(k).into()],
            });
        }
        p.outputs.push(buf);
        let mut device = Device::new(DeviceProfile::gtx560());
        let run = p.execute(&mut device, &program).unwrap();
        assert_eq!(run.outputs[0], vec![6.0; 32]);
        assert_eq!(run.stats.blocks, 2);
        assert_eq!(run.flat_output().len(), 32);
    }

    #[test]
    fn set_input_changes_next_execution() {
        let (program, kid) = scale_program();
        let mut p = Pipeline::default();
        let buf = p.add_buffer(BufferSpec::global("data", BufferInit::F32(vec![1.0; 8])));
        p.launches.push(LaunchPlan {
            kernel: kid,
            grid: Dim2::linear(1),
            block: Dim2::linear(8),
            args: vec![PlanArg::Buffer(buf), Scalar::F32(2.0).into()],
        });
        p.outputs.push(buf);
        let mut device = Device::new(DeviceProfile::gtx560());
        assert_eq!(
            p.execute(&mut device, &program).unwrap().outputs[0],
            vec![2.0; 8]
        );
        p.set_input(buf, BufferInit::F32(vec![10.0; 8]));
        assert_eq!(
            p.execute(&mut device, &program).unwrap().outputs[0],
            vec![20.0; 8]
        );
    }

    #[test]
    fn init_type_mismatch_rejected() {
        let (program, kid) = scale_program();
        let mut p = Pipeline::default();
        let buf = p.add_buffer(BufferSpec {
            name: "data".into(),
            ty: Ty::I32,
            space: MemSpace::Global,
            init: BufferInit::F32(vec![0.0; 8]),
        });
        p.launches.push(LaunchPlan {
            kernel: kid,
            grid: Dim2::linear(1),
            block: Dim2::linear(8),
            args: vec![PlanArg::Buffer(buf), Scalar::F32(2.0).into()],
        });
        let mut device = Device::new(DeviceProfile::gtx560());
        assert!(p.execute(&mut device, &program).is_err());
    }

    #[test]
    fn buffer_init_lengths() {
        assert_eq!(BufferInit::Zeroed(4).len(), 4);
        assert_eq!(BufferInit::F32(vec![0.0; 3]).len(), 3);
        assert!(!BufferInit::I32(vec![1]).is_empty());
        assert!(BufferInit::U32(vec![]).is_empty());
    }
}
