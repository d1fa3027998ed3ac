//! Fixture for `production_lines`: which lines count as code.

/// Doc comments never count.
pub fn greet(name: &str) -> String {
    // Neither do line comments.
    format!("hello, {name} // still inside the literal")
}

/* A block comment
   spanning two lines. */
pub const BANNER: &str = "first line
a middle line of the literal holds no code
last line";

#[cfg(test)]
mod tests {
    #[test]
    fn greets() {
        assert_eq!(super::greet("bao"), "hello, bao // still inside the literal");
    }
}
