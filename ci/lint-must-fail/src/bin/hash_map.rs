// must-fail: disallowed type `std::collections::HashMap`
fn main() {
    let m: std::collections::HashMap<u8, u8> = [(1, 2)].into_iter().collect();
    println!("{m:?}");
}
