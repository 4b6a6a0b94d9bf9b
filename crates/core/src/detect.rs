//! Detector verdicts over recovered sink parameter values, and the one
//! rule the registry cannot express as data (the premium-SMS check).
//! The paper's two sink-based problems (§VI-A), insecure ECB mode and the
//! permissive `ALLOW_ALL_HOSTNAME_VERIFIER`, are declarative rules in
//! [`crate::detector`].

use crate::forward::DataflowValue;

/// A detector verdict for one sink call.
#[derive(Clone, PartialEq, Debug)]
pub enum Verdict {
    /// The parameter value proves a misconfiguration; carries the reason.
    Vulnerable(String),
    /// The parameter value proves a safe configuration.
    Safe,
    /// The value could not be resolved to a decidable constant.
    Undetermined,
}

impl Verdict {
    /// Whether the verdict flags a vulnerability.
    pub fn is_vulnerable(&self) -> bool {
        matches!(self, Verdict::Vulnerable(_))
    }
}

/// Judges `sendTextMessage(dest, .., body, ..)`: a hard-coded premium
/// short code (3–6 digits) is the classic SMS-malware pattern \[82\].
pub fn judge_sms(values: &[DataflowValue]) -> Verdict {
    match values.first() {
        Some(DataflowValue::Str(dest)) => {
            let digits = dest.trim_start_matches('+');
            if !digits.is_empty() && digits.len() <= 6 && digits.chars().all(|c| c.is_ascii_digit())
            {
                Verdict::Vulnerable(format!("SMS to hard-coded premium short code {dest}"))
            } else {
                Verdict::Safe
            }
        }
        _ => Verdict::Undetermined,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &str) -> Vec<DataflowValue> {
        vec![DataflowValue::Str(v.into())]
    }

    #[test]
    fn registry_judge_dispatches_by_sink_id() {
        let reg = crate::DetectorRegistry::extended();
        assert!(reg
            .judge("crypto.cipher", &s("AES/ECB/PKCS5Padding"))
            .unwrap()
            .is_vulnerable());
        assert!(reg.judge("unknown.sink", &s("x")).is_err());
    }

    #[test]
    fn sms_destinations() {
        assert!(judge_sms(&s("12345")).is_vulnerable());
        assert!(judge_sms(&s("+4546")).is_vulnerable());
        assert_eq!(judge_sms(&s("+15551234567")), Verdict::Safe);
        assert_eq!(judge_sms(&[DataflowValue::Unknown]), Verdict::Undetermined);
    }
}
