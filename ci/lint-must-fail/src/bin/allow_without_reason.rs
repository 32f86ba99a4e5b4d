// must-fail: `allow` attribute without specifying a reason
#[allow(dead_code)]
fn unused() {}

fn main() {}
