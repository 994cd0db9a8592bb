//! Programs, kernels, device functions, and their declarations.

use std::fmt;

use crate::error::IrError;
use crate::stmt::Stmt;
use crate::types::{MemSpace, Ty};

/// Identifier of a device function within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub usize);

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn#{}", self.0)
    }
}

/// Identifier of a kernel within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KernelId(pub usize);

impl fmt::Display for KernelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "kernel#{}", self.0)
    }
}

/// Declaration of a local variable.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LocalDecl {
    /// Debug name (not semantically meaningful).
    pub name: String,
    /// Declared type.
    pub ty: Ty,
}

/// A kernel or function parameter.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Param {
    /// A device-memory buffer of elements of `ty` living in `space`.
    Buffer {
        /// Debug name.
        name: String,
        /// Element type.
        ty: Ty,
        /// Memory space the buffer binds to.
        space: MemSpace,
    },
    /// A scalar argument passed at launch/call time.
    Scalar {
        /// Debug name.
        name: String,
        /// Scalar type.
        ty: Ty,
    },
}

impl Param {
    /// The parameter's debug name.
    pub fn name(&self) -> &str {
        match self {
            Param::Buffer { name, .. } | Param::Scalar { name, .. } => name,
        }
    }

    /// The element or scalar type.
    pub fn ty(&self) -> Ty {
        match self {
            Param::Buffer { ty, .. } | Param::Scalar { ty, .. } => *ty,
        }
    }

    /// True for buffer parameters.
    pub fn is_buffer(&self) -> bool {
        matches!(self, Param::Buffer { .. })
    }
}

/// Declaration of a block-shared scratchpad array.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SharedDecl {
    /// Debug name.
    pub name: String,
    /// Element type.
    pub ty: Ty,
    /// Number of elements (fixed at kernel build time, as in static
    /// `__shared__` declarations).
    pub len: usize,
}

/// A device function: pure-by-convention scalar code callable from kernels.
///
/// Functions are the unit of the paper's approximate memoization. Whether a
/// function actually *is* pure is established by the purity analysis in
/// `paraprox-patterns`, not assumed.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Func {
    /// Function name (unique within a program).
    pub name: String,
    /// Scalar parameters (buffer parameters are not allowed in functions;
    /// the builder only offers scalars).
    pub params: Vec<Param>,
    /// Return type.
    pub ret: Ty,
    /// Local variable declarations.
    pub locals: Vec<LocalDecl>,
    /// Function body; must reach a [`Stmt::Return`] on every path that
    /// terminates.
    pub body: Vec<Stmt>,
}

/// A kernel: a grid of threads all executing `body`.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Kernel {
    /// Kernel name (unique within a program).
    pub name: String,
    /// Parameters (buffers and scalars), bound positionally at launch.
    pub params: Vec<Param>,
    /// Shared-memory arrays, one allocation per block.
    pub shared: Vec<SharedDecl>,
    /// Local variable declarations (per thread).
    pub locals: Vec<LocalDecl>,
    /// Kernel body.
    pub body: Vec<Stmt>,
}

impl Kernel {
    /// Indices of the buffer parameters, in declaration order.
    pub fn buffer_param_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.params
            .iter()
            .enumerate()
            .filter(|(_, p)| p.is_buffer())
            .map(|(i, _)| i)
    }
}

/// A compilation unit: device functions plus kernels.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    funcs: Vec<Func>,
    kernels: Vec<Kernel>,
}

impl Program {
    /// Create an empty program.
    pub fn new() -> Program {
        Program::default()
    }

    /// Add a device function, returning its id.
    pub fn add_func(&mut self, func: Func) -> FuncId {
        let id = FuncId(self.funcs.len());
        self.funcs.push(func);
        id
    }

    /// Add a kernel, returning its id.
    pub fn add_kernel(&mut self, kernel: Kernel) -> KernelId {
        let id = KernelId(self.kernels.len());
        self.kernels.push(kernel);
        id
    }

    /// Look up a function by id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this program.
    pub fn func(&self, id: FuncId) -> &Func {
        &self.funcs[id.0]
    }

    /// Look up a kernel by id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this program.
    pub fn kernel(&self, id: KernelId) -> &Kernel {
        &self.kernels[id.0]
    }

    /// Mutable kernel access (used by the approximation rewriters).
    pub fn kernel_mut(&mut self, id: KernelId) -> &mut Kernel {
        &mut self.kernels[id.0]
    }

    /// All functions with their ids.
    pub fn funcs(&self) -> impl Iterator<Item = (FuncId, &Func)> {
        self.funcs.iter().enumerate().map(|(i, f)| (FuncId(i), f))
    }

    /// All kernels with their ids.
    pub fn kernels(&self) -> impl Iterator<Item = (KernelId, &Kernel)> {
        self.kernels
            .iter()
            .enumerate()
            .map(|(i, k)| (KernelId(i), k))
    }

    /// Number of functions.
    pub fn func_count(&self) -> usize {
        self.funcs.len()
    }

    /// Number of kernels.
    pub fn kernel_count(&self) -> usize {
        self.kernels.len()
    }

    /// Find a function by name.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::UnknownName`] when no function has that name.
    pub fn func_by_name(&self, name: &str) -> Result<FuncId, IrError> {
        self.funcs
            .iter()
            .position(|f| f.name == name)
            .map(FuncId)
            .ok_or_else(|| IrError::UnknownName(name.to_string()))
    }

    /// Find a kernel by name.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::UnknownName`] when no kernel has that name.
    pub fn kernel_by_name(&self, name: &str) -> Result<KernelId, IrError> {
        self.kernels
            .iter()
            .position(|k| k.name == name)
            .map(KernelId)
            .ok_or_else(|| IrError::UnknownName(name.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_kernel(name: &str) -> Kernel {
        Kernel {
            name: name.to_string(),
            params: vec![
                Param::Buffer {
                    name: "in".into(),
                    ty: Ty::F32,
                    space: MemSpace::Global,
                },
                Param::Scalar {
                    name: "n".into(),
                    ty: Ty::I32,
                },
            ],
            shared: vec![],
            locals: vec![],
            body: vec![],
        }
    }

    #[test]
    fn program_lookup_by_name() {
        let mut p = Program::new();
        let k = p.add_kernel(tiny_kernel("a"));
        p.add_kernel(tiny_kernel("b"));
        assert_eq!(p.kernel_by_name("a").unwrap(), k);
        assert!(p.kernel_by_name("zzz").is_err());
        assert_eq!(p.kernel_count(), 2);
    }

    #[test]
    fn buffer_param_indices_filters_scalars() {
        let k = tiny_kernel("k");
        let idx: Vec<usize> = k.buffer_param_indices().collect();
        assert_eq!(idx, vec![0]);
    }

    #[test]
    fn param_accessors() {
        let p = Param::Buffer {
            name: "buf".into(),
            ty: Ty::F32,
            space: MemSpace::Constant,
        };
        assert_eq!(p.name(), "buf");
        assert_eq!(p.ty(), Ty::F32);
        assert!(p.is_buffer());
        let s = Param::Scalar {
            name: "n".into(),
            ty: Ty::I32,
        };
        assert!(!s.is_buffer());
    }
}
