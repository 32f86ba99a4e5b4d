// must-fail: disallowed method `std::time::Instant::now`
fn main() {
    println!("{:?}", std::time::Instant::now());
}
