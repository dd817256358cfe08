//! Output comparisons shared by the workloads.

/// Per-PE outputs with every number replaced by `#`.
fn masked(outputs: &[String]) -> Vec<String> {
    outputs
        .iter()
        .map(|o| {
            let mut s = String::with_capacity(o.len());
            let mut in_num = false;
            for ch in o.chars() {
                let numeric =
                    ch.is_ascii_digit() || (in_num && matches!(ch, '.' | 'e' | '-' | '+'));
                if numeric || (ch == '-' && !in_num) {
                    if !in_num {
                        s.push('#');
                    }
                    in_num = true;
                } else {
                    in_num = false;
                    s.push(ch);
                }
            }
            s
        })
        .collect()
}

/// Whether a program draws from the `WHATEVR`/`WHATEVAR` streams, whose
/// sequence on the C backend is its own (see docs/LANGUAGE.md).
fn draws_random(src: &str) -> bool {
    src.contains("WHATEVR") || src.contains("WHATEVAR")
}

/// Whether a C-backend run agrees with the in-process engines' output
/// `want`: exactly, or line for line up to the numbers when the
/// program draws random numbers.
pub fn c_agrees(src: &str, want: &[String], got: &[String]) -> bool {
    if draws_random(src) {
        masked(want) == masked(got)
    } else {
        want == got
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masking_keeps_text_and_drops_numbers() {
        let a = vec!["PE 0 GOT 0.96 -0.63\n".to_string()];
        let b = vec!["PE 1 GOT 0.27 12\n".to_string()];
        assert_eq!(masked(&a), masked(&b));
        assert_ne!(masked(&a), masked(&["PE 0 HAZ 1\n".to_string()]));
        assert!(c_agrees("VISIBLE WHATEVAR", &a, &b));
        assert!(!c_agrees("VISIBLE 1", &a, &b));
    }
}
