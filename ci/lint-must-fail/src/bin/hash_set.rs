// must-fail: disallowed type `std::collections::HashSet`
fn main() {
    let s: std::collections::HashSet<u8> = [1, 2].into_iter().collect();
    println!("{s:?}");
}
