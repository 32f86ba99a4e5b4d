// must-fail: disallowed method `std::net::TcpListener::accept`
fn main() {
    if let Ok(listener) = std::net::TcpListener::bind("127.0.0.1:0") {
        println!("{:?}", listener.accept().is_ok());
    }
}
