// must-fail: may wrap around the value
// header of: serve wire
#![deny(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)]

fn main() {
    let n = u64::MAX - u64::from(std::env::args().count() > 1);
    println!("{}", n as i64);
}
