// must-fail: #[allow] attribute found
#[allow(dead_code, reason = "an allow is never checked for staleness; use expect")]
fn unused() {}

fn main() {}
