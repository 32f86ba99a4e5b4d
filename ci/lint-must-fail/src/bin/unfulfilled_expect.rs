// must-fail: this lint expectation is unfulfilled
#[expect(dead_code, reason = "stale: main calls this now")]
fn helper() -> u8 {
    7
}

fn main() {
    println!("{}", helper());
}
