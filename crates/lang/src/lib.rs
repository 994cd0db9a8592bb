//! A CUDA-flavored source frontend for the kernel IR.
//!
//! Paraprox consumes CUDA/OpenCL source through Clang; this crate plays
//! that role for the reproduction. It parses a compact C dialect — enough
//! to express every benchmark in the paper, and every application in
//! `paraprox-apps` is written in it — and lowers it to
//! [`paraprox_ir::Program`], after which detection, rewriting, and tuning
//! proceed exactly as for builder-constructed kernels.
//!
//! # Supported language
//!
//! ```cuda
//! __device__ float square(float x) {
//!     return x * x;
//! }
//!
//! __global__ void scale(float* data, float k, int n) {
//!     int gid = blockIdx.x * blockDim.x + threadIdx.x;
//!     if (gid < n) {
//!         data[gid] = square(data[gid]) * k;
//!     }
//! }
//! ```
//!
//! * Types: `float`, `int`, `uint`, `bool`; pointer parameters are device
//!   buffers (`__constant__ float*` places the buffer in constant memory).
//! * `__shared__ float tile[256];` declarations at kernel scope.
//! * Statements: declarations, (compound) assignments, array stores,
//!   `if`/`else`, canonical `for` loops, `__syncthreads()`, `return`,
//!   and `atomicAdd/Min/Max/And/Or/Xor(&buf[idx], v)`.
//! * Expressions: the usual C operator precedence including the ternary
//!   conditional, casts, and the math builtins `expf`, `logf`, `sqrtf`,
//!   `rsqrtf`, `sinf`, `cosf`, `fabsf`, `floorf`, `fminf`, `fmaxf`,
//!   `powf`, plus `min`/`max` on integers.
//! * Specials: `threadIdx`, `blockIdx`, `blockDim`, `gridDim` (`.x`/`.y`).
//! * Negative literals: a `-` directly before a numeric literal, with no
//!   space or line break between, is part of the literal, so `-2.0f`
//!   lowers to the constant -2.0 and `-2147483648` to `i32::MIN`. Any
//!   other `-`, including `- 2.0f` and a parenthesized literal such as
//!   `-(2.0f)`, is a negation the device executes and charges.
//!
//! # Example
//!
//! ```
//! let src = r#"
//!     __global__ void double_all(float* data, int n) {
//!         int gid = blockIdx.x * blockDim.x + threadIdx.x;
//!         if (gid < n) { data[gid] = data[gid] * 2.0f; }
//!     }
//! "#;
//! let program = paraprox_lang::parse_program(src)?;
//! assert_eq!(program.kernel_count(), 1);
//! # Ok::<(), paraprox_lang::LangError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
mod error;
mod lexer;
mod lower;
mod parser;

pub use error::LangError;

/// Parse and lower a source string into an IR program.
///
/// # Errors
///
/// Returns a [`LangError`] carrying the line/column of the first syntax or
/// lowering problem.
pub fn parse_program(source: &str) -> Result<paraprox_ir::Program, LangError> {
    let (tokens, end) = lexer::lex(source)?;
    let unit = parser::parse(&tokens, end)?;
    lower::lower(&unit)
}
