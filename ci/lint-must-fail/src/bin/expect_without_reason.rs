// must-fail: `expect` attribute without specifying a reason
#[expect(dead_code)]
fn unused() {}

fn main() {}
