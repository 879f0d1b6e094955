//! Clean wire fixture: encode and decode agree on the tag set exactly. As
//! in the real `wire.rs`, `encode` is a wrapper and the tagged match lives
//! in `encode_into`.

impl Frame {
    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Frame::Ping => buf.put_u8(0),
            Frame::Pong => buf.put_u8(1),
        }
    }

    fn decode(buf: &mut Reader) -> Option<Frame> {
        let tag = buf.get_u8()?;
        match tag {
            0 => Some(Frame::Ping),
            1 => Some(Frame::Pong),
            _ => None,
        }
    }
}

/// An owned message that encodes through its borrowed view: the envelope
/// tag 9 is its own, the rest the view's, and decode matches all three.
impl Letter {
    fn as_note(&self) -> Note<'_> {
        match self {
            Letter::Text(t) => Note::Text(t),
            Letter::Sealed(inner) => inner.as_note(),
        }
    }

    fn encode_into(&self, buf: &mut Vec<u8>) {
        if let Letter::Sealed(_) = self {
            put_seal(buf);
        }
        self.as_note().encode_into(buf);
    }

    fn decode(buf: &mut Reader) -> Option<Letter> {
        match buf.get_u8()? {
            0 => Some(Letter::Text(buf.rest())),
            9 => Some(Letter::Sealed(Box::new(Letter::decode(buf)?))),
            _ => None,
        }
    }
}

impl Note<'_> {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        match *self {
            Note::Text(t) => {
                buf.put_u8(0);
                buf.put_slice(t);
            }
        }
    }
}

fn put_seal(buf: &mut Vec<u8>) {
    buf.put_u8(9);
}
