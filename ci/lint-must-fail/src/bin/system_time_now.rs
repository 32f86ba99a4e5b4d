// must-fail: disallowed method `std::time::SystemTime::now`
fn main() {
    println!("{:?}", std::time::SystemTime::now());
}
