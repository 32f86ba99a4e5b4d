// must-fail: disallowed method `std::net::TcpStream::connect`
fn main() {
    println!("{:?}", std::net::TcpStream::connect("127.0.0.1:9").is_ok());
}
