//! Robustness: the frontend must never panic — any input, however
//! mangled, must produce either a program or a positioned error.

use paraprox_lang::parse_program;
use paraprox_prng::Rng;

/// Arbitrary character soup (including multi-byte and control chars): no
/// panics.
#[test]
fn arbitrary_strings_never_panic() {
    const POOL: &[char] = &[
        'a', 'z', '0', '9', ' ', '\n', '\t', '(', ')', '{', '}', '[', ']', ';', '=', '+', '*', '/',
        '-', '.', ',', '<', '>', '&', '|', '!', '"', '\'', '\\', '_', '#', '@', '~', '%', '^', '?',
        ':', 'é', 'λ', '中', '\u{0}', '\u{7f}', '\u{2028}', '🦀',
    ];
    let mut r = Rng::seed_from_u64(0x50F7);
    for _ in 0..256 {
        let len = r.random_range(0usize..200);
        let input: String = (0..len)
            .map(|_| POOL[r.random_range(0usize..POOL.len())])
            .collect();
        let _ = parse_program(&input);
    }
}

/// Token-shaped soup (identifiers, numbers, operators): no panics.
#[test]
fn token_soup_never_panics() {
    const TOKENS: &[&str] = &[
        "__global__",
        "__device__",
        "float",
        "int",
        "void",
        "if",
        "for",
        "return",
        "(",
        ")",
        "{",
        "}",
        "[",
        "]",
        ";",
        "=",
        "+",
        "*",
        "x",
        "1",
        "2.5f",
    ];
    let mut r = Rng::seed_from_u64(0x70C3);
    for _ in 0..256 {
        let n = r.random_range(0usize..64);
        let input = (0..n)
            .map(|_| TOKENS[r.random_range(0usize..TOKENS.len())])
            .collect::<Vec<_>>()
            .join(" ");
        let _ = parse_program(&input);
    }
}

/// Truncating a valid program at any byte boundary: no panics, and the
/// full program still parses.
#[test]
fn truncated_programs_never_panic() {
    let full = r#"
        __device__ float f(float x) { return x * x + 1.0f; }
        __global__ void k(float* a, int n) {
            int gid = blockIdx.x * blockDim.x + threadIdx.x;
            if (gid < n) {
                for (int i = 0; i < 4; i++) { a[gid] += f(a[gid]); }
            }
        }
    "#;
    for cut in 0..=full.len() {
        if full.is_char_boundary(cut) {
            let _ = parse_program(&full[..cut]);
        }
    }
    parse_program(full).expect("the full program is valid");
}

#[test]
fn deeply_nested_expressions_do_not_overflow() {
    // Reasonable depths parse; pathological depths get a clean error
    // instead of a stack overflow (the parser caps expression nesting).
    let nest = |n: usize| {
        let mut expr = "x".to_string();
        for _ in 0..n {
            expr = format!("({expr})");
        }
        format!("__device__ float f(float x) {{ return {expr}; }}")
    };
    parse_program(&nest(40)).expect("40-deep parens parse");
    let err = parse_program(&nest(500)).unwrap_err();
    assert!(err.message.contains("nesting"), "{}", err.message);
}

#[test]
fn error_positions_point_into_the_source() {
    let src = "__global__ void k(float* a) {\n    a[0] = ;\n}";
    let err = parse_program(src).unwrap_err();
    assert_eq!(err.pos.line, 2);
    assert!(err.pos.col >= 11, "col = {}", err.pos.col);
}

#[test]
fn errors_point_into_the_text_at_the_end_of_input_too() {
    // An unexpected end is reported just past the last character.
    let err = parse_program("__global__ void k(float* a) {\n    a[0] = 1.0f;").unwrap_err();
    assert_eq!((err.pos.line, err.pos.col), (2, 17), "{err}");
    // A lowering error without an expression carries its statement's
    // position.
    let err =
        parse_program("__device__ float f(float x) {\n    __syncthreads();\n    return x;\n}")
            .unwrap_err();
    assert_eq!((err.pos.line, err.pos.col), (2, 5), "{err}");
}
