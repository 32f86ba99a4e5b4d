// must-fail: may truncate the value
// header of: serve wire
#![deny(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)]

fn main() {
    let n = 300 + u64::from(std::env::args().count() > 1);
    println!("{}", n as u8);
}
