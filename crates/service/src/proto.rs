//! Wire protocol: length-prefixed `microjson` frames and the JSON
//! encodings of job specs, outcomes, and health reports.
//!
//! ## Framing
//!
//! Every message is one JSON document prefixed by its byte length as a
//! little-endian `u32`. Frames above [`MAX_FRAME`] are rejected before
//! allocation, and a body buffer grows only with the bytes that arrive —
//! a malformed or hostile peer cannot make the daemon balloon.
//!
//! ## Numbers
//!
//! `microjson` numbers are `f64`, which loses u64 lane values above
//! 2^53. All 64-bit quantities (lane values, cycle counts, seeds) are
//! therefore encoded as `"0x..."` hex *strings*; [`parse_u64`] accepts
//! both forms so hand-written clients can still send small decimals.

use crate::health::{HealthReport, HealthState};
use crate::job::{
    FaultRequest, JobError, JobId, JobOutcome, JobResult, JobSpec, Priority, ProgramSource,
    RegInit, RegRef,
};
use crate::limits::AdmitError;
use microjson::Value;
use pum_backend::DatapathKind;
use std::io::{Read, Write};

/// Frame size ceiling, bytes.
pub const MAX_FRAME: usize = 8 << 20;

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Propagates I/O errors; rejects documents above [`MAX_FRAME`].
pub fn write_frame(w: &mut impl Write, v: &Value) -> std::io::Result<()> {
    let body = v.to_string();
    if body.len() > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {} bytes exceeds the {MAX_FRAME}-byte ceiling", body.len()),
        ));
    }
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(body.as_bytes())?;
    w.flush()
}

/// Reads one frame. `Ok(None)` on clean EOF at a frame boundary;
/// oversized or unparseable frames surface as `InvalidData`. A body that
/// fails to parse carries the [`microjson::ParseError`] as the I/O
/// error's inner error, so callers can tell syntax from excess nesting
/// ([`microjson::MAX_DEPTH`]) without matching on text.
///
/// # Errors
///
/// Propagates I/O errors and typed protocol violations.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Value>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte ceiling"),
        ));
    }
    // The body buffer grows with the bytes that actually arrive: a header
    // that claims `MAX_FRAME` and is followed by nothing costs nothing.
    let mut body = Vec::new();
    r.take(len as u64).read_to_end(&mut body)?;
    if body.len() < len {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            format!("frame body ended after {} of {len} bytes", body.len()),
        ));
    }
    let text = String::from_utf8(body)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    Value::parse(&text)
        .map(Some)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// Encodes a u64 losslessly (hex string).
pub fn hex(v: u64) -> Value {
    Value::Str(format!("{v:#x}"))
}

/// Decodes a u64 from a hex/decimal string or a small JSON number.
pub fn parse_u64(v: &Value) -> Option<u64> {
    match v {
        Value::Str(s) => {
            if let Some(h) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
                u64::from_str_radix(h, 16).ok()
            } else {
                s.parse::<u64>().ok()
            }
        }
        Value::Num(_) => v.as_u64(),
        _ => None,
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn str_field(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field `{key}`"))
}

fn u64_field(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key).and_then(parse_u64).ok_or_else(|| format!("missing u64 field `{key}`"))
}

fn reg_init_to_json(r: &RegInit) -> Value {
    obj(vec![
        ("rfh", Value::Num(f64::from(r.rfh))),
        ("vrf", Value::Num(f64::from(r.vrf))),
        ("reg", Value::Num(f64::from(r.reg))),
        ("values", Value::Arr(r.values.iter().map(|&v| hex(v)).collect())),
    ])
}

fn reg_init_from_json(v: &Value) -> Result<RegInit, String> {
    let values = v
        .get("values")
        .and_then(Value::as_arr)
        .ok_or("register init missing `values`")?
        .iter()
        .map(|e| parse_u64(e).ok_or("bad lane value"))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(RegInit {
        rfh: u64_field(v, "rfh")? as u16,
        vrf: u64_field(v, "vrf")? as u16,
        reg: u64_field(v, "reg")? as u8,
        values,
    })
}

/// Serializes a job spec.
pub fn spec_to_json(spec: &JobSpec) -> Value {
    let program = match &spec.program {
        ProgramSource::EzText(text) => {
            obj(vec![("kind", Value::Str("ezpim".into())), ("text", Value::Str(text.clone()))])
        }
        ProgramSource::Asm(text) => {
            obj(vec![("kind", Value::Str("asm".into())), ("text", Value::Str(text.clone()))])
        }
        ProgramSource::PoisonPanic => obj(vec![("kind", Value::Str("poison_panic".into()))]),
    };
    let mut fields = vec![
        ("tenant", Value::Str(spec.tenant.clone())),
        ("priority", Value::Str(spec.priority.as_str().into())),
        ("backend", Value::Str(spec.backend.tag().into())),
        ("program", program),
        ("inputs", Value::Arr(spec.inputs.iter().map(reg_init_to_json).collect())),
        (
            "outputs",
            Value::Arr(
                spec.outputs
                    .iter()
                    .map(|o| {
                        obj(vec![
                            ("rfh", Value::Num(f64::from(o.rfh))),
                            ("vrf", Value::Num(f64::from(o.vrf))),
                            ("reg", Value::Num(f64::from(o.reg))),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];
    if let Some(ms) = spec.deadline_ms {
        fields.push(("deadline_ms", hex(ms)));
    }
    if let Some(f) = &spec.fault {
        fields.push((
            "fault",
            obj(vec![("seed", hex(f.seed)), ("transient_rate", Value::Num(f.transient_rate))]),
        ));
    }
    obj(fields)
}

/// Deserializes a job spec.
///
/// # Errors
///
/// Returns a diagnostic naming the first malformed field.
pub fn spec_from_json(v: &Value) -> Result<JobSpec, String> {
    let tenant = str_field(v, "tenant")?;
    let priority = Priority::from_str_tag(&str_field(v, "priority")?)
        .ok_or("bad `priority` (low/normal/high)")?;
    let backend = DatapathKind::parse(&str_field(v, "backend")?)
        .ok_or_else(|| format!("bad `backend` ({})", DatapathKind::tags("/")))?;
    let pv = v.get("program").ok_or("missing `program`")?;
    let program = match str_field(pv, "kind")?.as_str() {
        "ezpim" => ProgramSource::EzText(str_field(pv, "text")?),
        "asm" => ProgramSource::Asm(str_field(pv, "text")?),
        "poison_panic" => ProgramSource::PoisonPanic,
        other => return Err(format!("unknown program kind `{other}`")),
    };
    let inputs = match v.get("inputs").and_then(Value::as_arr) {
        Some(arr) => arr.iter().map(reg_init_from_json).collect::<Result<Vec<_>, _>>()?,
        None => Vec::new(),
    };
    let outputs = match v.get("outputs").and_then(Value::as_arr) {
        Some(arr) => arr
            .iter()
            .map(|o| {
                Ok(RegRef {
                    rfh: u64_field(o, "rfh")? as u16,
                    vrf: u64_field(o, "vrf")? as u16,
                    reg: u64_field(o, "reg")? as u8,
                })
            })
            .collect::<Result<Vec<_>, String>>()?,
        None => Vec::new(),
    };
    let deadline_ms =
        v.get("deadline_ms").map(|d| parse_u64(d).ok_or("bad `deadline_ms`")).transpose()?;
    let fault = v
        .get("fault")
        .map(|f| {
            Ok::<FaultRequest, String>(FaultRequest {
                seed: u64_field(f, "seed")?,
                transient_rate: f
                    .get("transient_rate")
                    .and_then(Value::as_f64)
                    .ok_or("missing `transient_rate`")?,
            })
        })
        .transpose()?;
    Ok(JobSpec { tenant, priority, backend, program, inputs, outputs, deadline_ms, fault })
}

/// Serializes a typed admission rejection as `{kind, message}` plus any
/// structured fields a client might branch on.
pub fn admit_error_to_json(e: &AdmitError) -> Value {
    let mut fields =
        vec![("kind", Value::Str(e.kind().into())), ("message", Value::Str(e.to_string()))];
    match e {
        AdmitError::QueueFull { capacity } => {
            fields.push(("capacity", Value::Num(*capacity as f64)));
        }
        AdmitError::TenantQuotaExceeded { tenant, quota } => {
            fields.push(("tenant", Value::Str(tenant.clone())));
            fields.push(("quota", Value::Num(*quota as f64)));
        }
        AdmitError::LoadShed { health, min_priority } => {
            fields.push(("health", Value::Str(health.as_str().into())));
            fields.push(("min_priority", Value::Str(min_priority.as_str().into())));
        }
        _ => {}
    }
    obj(fields)
}

fn job_error_to_json(e: &JobError) -> Value {
    let mut fields =
        vec![("kind", Value::Str(e.kind().into())), ("message", Value::Str(e.to_string()))];
    match e {
        JobError::FaultBudgetExhausted { attempts, last } => {
            fields.push(("attempts", Value::Num(f64::from(*attempts))));
            fields.push(("last", Value::Str(last.clone())));
        }
        JobError::WorkerPanic { payload } => {
            fields.push(("payload", Value::Str(payload.clone())));
        }
        JobError::WorkerLost { attempts } => {
            fields.push(("attempts", Value::Num(f64::from(*attempts))));
        }
        JobError::Sim { message } => {
            fields.push(("sim_message", Value::Str(message.clone())));
        }
        _ => {}
    }
    obj(fields)
}

fn job_error_from_json(v: &Value) -> Result<JobError, String> {
    let kind = str_field(v, "kind")?;
    Ok(match kind.as_str() {
        "deadline_exceeded" => JobError::DeadlineExceeded,
        "cancelled" => JobError::Cancelled,
        "runaway_program" => JobError::RunawayProgram,
        "fault_budget_exhausted" => JobError::FaultBudgetExhausted {
            attempts: u64_field(v, "attempts")? as u32,
            last: str_field(v, "last")?,
        },
        "worker_panic" => JobError::WorkerPanic { payload: str_field(v, "payload")? },
        "worker_lost" => JobError::WorkerLost { attempts: u64_field(v, "attempts")? as u32 },
        "sim" => JobError::Sim { message: str_field(v, "sim_message")? },
        other => return Err(format!("unknown job error kind `{other}`")),
    })
}

/// Serializes a terminal job outcome.
pub fn outcome_to_json(o: &JobOutcome) -> Value {
    let result = match &o.result {
        Ok(r) => obj(vec![
            ("ok", Value::Bool(true)),
            ("outputs", Value::Arr(r.outputs.iter().map(reg_init_to_json).collect())),
            ("cycles", hex(r.cycles)),
            ("instructions", hex(r.instructions)),
        ]),
        Err(e) => obj(vec![("ok", Value::Bool(false)), ("error", job_error_to_json(e))]),
    };
    obj(vec![
        ("job", hex(o.job)),
        ("tenant", Value::Str(o.tenant.clone())),
        ("result", result),
        ("attempts", Value::Num(f64::from(o.attempts))),
        ("preemptions", Value::Num(f64::from(o.preemptions))),
        ("wall_ms", hex(o.wall_ms)),
    ])
}

/// Deserializes a terminal job outcome.
///
/// # Errors
///
/// Returns a diagnostic naming the first malformed field.
pub fn outcome_from_json(v: &Value) -> Result<JobOutcome, String> {
    let rv = v.get("result").ok_or("missing `result`")?;
    let result = if rv.get("ok").and_then(Value::as_bool).ok_or("missing `result.ok`")? {
        let outputs = rv
            .get("outputs")
            .and_then(Value::as_arr)
            .ok_or("missing `result.outputs`")?
            .iter()
            .map(reg_init_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(JobResult {
            outputs,
            cycles: u64_field(rv, "cycles")?,
            instructions: u64_field(rv, "instructions")?,
        })
    } else {
        Err(job_error_from_json(rv.get("error").ok_or("missing `result.error`")?)?)
    };
    Ok(JobOutcome {
        job: u64_field(v, "job")?,
        tenant: str_field(v, "tenant")?,
        result,
        attempts: u64_field(v, "attempts")? as u32,
        preemptions: u64_field(v, "preemptions")? as u32,
        wall_ms: u64_field(v, "wall_ms")?,
    })
}

/// Serializes a health report.
pub fn health_to_json(h: &HealthReport) -> Value {
    obj(vec![
        ("state", Value::Str(h.state.as_str().into())),
        ("queued", Value::Num(h.queued as f64)),
        ("capacity", Value::Num(h.capacity as f64)),
        ("running", Value::Num(h.running as f64)),
        ("workers_alive", Value::Num(h.workers_alive as f64)),
        ("workers_spawned", hex(h.workers_spawned)),
        ("worker_deaths", hex(h.worker_deaths)),
        ("fault_retries", hex(h.fault_retries)),
        ("recent_fault_retries", Value::Num(f64::from(h.recent_fault_retries))),
        ("preemptions", hex(h.preemptions)),
        ("shed", hex(h.shed)),
        ("completed", hex(h.completed)),
        ("failed", hex(h.failed)),
    ])
}

/// Deserializes a health report.
///
/// # Errors
///
/// Returns a diagnostic naming the first malformed field.
pub fn health_from_json(v: &Value) -> Result<HealthReport, String> {
    Ok(HealthReport {
        state: HealthState::from_str_tag(&str_field(v, "state")?).ok_or("bad `state`")?,
        queued: u64_field(v, "queued")? as usize,
        capacity: u64_field(v, "capacity")? as usize,
        running: u64_field(v, "running")? as usize,
        workers_alive: u64_field(v, "workers_alive")? as usize,
        workers_spawned: u64_field(v, "workers_spawned")?,
        worker_deaths: u64_field(v, "worker_deaths")?,
        fault_retries: u64_field(v, "fault_retries")?,
        recent_fault_retries: u64_field(v, "recent_fault_retries")? as u32,
        preemptions: u64_field(v, "preemptions")?,
        shed: u64_field(v, "shed")?,
        completed: u64_field(v, "completed")?,
        failed: u64_field(v, "failed")?,
    })
}

/// A client request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Admit a job.
    Submit(Box<JobSpec>),
    /// Report a job's lifecycle phase.
    Status(JobId),
    /// Block until a job is terminal, then return its outcome.
    Wait(JobId),
    /// Cancel a live job.
    Cancel(JobId),
    /// Report service health.
    Health,
    /// Gracefully stop the daemon.
    Shutdown,
}

/// Serializes a request.
pub fn request_to_json(r: &Request) -> Value {
    match r {
        Request::Submit(spec) => {
            obj(vec![("op", Value::Str("submit".into())), ("spec", spec_to_json(spec))])
        }
        Request::Status(id) => obj(vec![("op", Value::Str("status".into())), ("id", hex(*id))]),
        Request::Wait(id) => obj(vec![("op", Value::Str("wait".into())), ("id", hex(*id))]),
        Request::Cancel(id) => obj(vec![("op", Value::Str("cancel".into())), ("id", hex(*id))]),
        Request::Health => obj(vec![("op", Value::Str("health".into()))]),
        Request::Shutdown => obj(vec![("op", Value::Str("shutdown".into()))]),
    }
}

/// Deserializes a request.
///
/// # Errors
///
/// Returns a diagnostic naming the first malformed field.
pub fn request_from_json(v: &Value) -> Result<Request, String> {
    match str_field(v, "op")?.as_str() {
        "submit" => {
            Ok(Request::Submit(Box::new(spec_from_json(v.get("spec").ok_or("missing `spec`")?)?)))
        }
        "status" => Ok(Request::Status(u64_field(v, "id")?)),
        "wait" => Ok(Request::Wait(u64_field(v, "id")?)),
        "cancel" => Ok(Request::Cancel(u64_field(v, "id")?)),
        "health" => Ok(Request::Health),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown op `{other}`")),
    }
}

/// Wraps a payload as a success response.
pub fn ok_response(fields: Vec<(&str, Value)>) -> Value {
    let mut all = vec![("ok", Value::Bool(true))];
    all.extend(fields);
    obj(all)
}

/// Wraps a typed error payload as a failure response.
pub fn err_response(error: Value) -> Value {
    obj(vec![("ok", Value::Bool(false)), ("error", error)])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> JobSpec {
        let mut spec =
            JobSpec::ez("tenant-a", DatapathKind::Pluto, "ensemble h0.v0 {\n add r0 r1 r2\n}");
        spec.priority = Priority::High;
        spec.inputs.push(RegInit { rfh: 0, vrf: 1, reg: 3, values: vec![u64::MAX, 0, 12345] });
        spec.outputs.push(RegRef { rfh: 1, vrf: 0, reg: 7 });
        spec.deadline_ms = Some(1500);
        spec.fault = Some(FaultRequest { seed: 0xDEAD_BEEF_CAFE_F00D, transient_rate: 1e-4 });
        spec
    }

    #[test]
    fn deeply_nested_frame_is_rejected_with_a_typed_error() {
        let body = "[".repeat(200 << 10);
        let mut frame = (body.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(body.as_bytes());
        let err = read_frame(&mut std::io::Cursor::new(frame)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let parse = err
            .get_ref()
            .and_then(|inner| inner.downcast_ref::<microjson::ParseError>())
            .expect("the parse error travels inside the I/O error");
        assert_eq!(parse.kind, microjson::ParseErrorKind::TooDeep);
        assert_eq!(parse.pos, microjson::MAX_DEPTH);
    }

    #[test]
    fn spec_round_trips_through_text() {
        let spec = sample_spec();
        let text = spec_to_json(&spec).to_string();
        let back = spec_from_json(&Value::parse(&text).unwrap()).unwrap();
        assert_eq!(back.tenant, spec.tenant);
        assert_eq!(back.priority, spec.priority);
        assert_eq!(back.backend, spec.backend);
        assert_eq!(back.program, spec.program);
        assert_eq!(back.inputs, spec.inputs);
        assert_eq!(back.outputs, spec.outputs);
        assert_eq!(back.deadline_ms, spec.deadline_ms);
        assert_eq!(back.fault.unwrap().seed, spec.fault.unwrap().seed);
    }

    #[test]
    fn every_backend_tag_round_trips_and_unknown_tags_are_rejected() {
        for kind in DatapathKind::ALL {
            let mut spec = sample_spec();
            spec.backend = kind;
            let json = spec_to_json(&spec);
            assert_eq!(json.get("backend").and_then(Value::as_str), Some(kind.tag()));
            let text = json.to_string();
            assert_eq!(spec_from_json(&Value::parse(&text).unwrap()).unwrap().backend, kind);
        }
        let text = spec_to_json(&sample_spec()).to_string().replace("\"pluto\"", "\"custom\"");
        let err = spec_from_json(&Value::parse(&text).unwrap()).unwrap_err();
        assert_eq!(err, "bad `backend` (racer/mimdram/duality-cache/pluto/dpu)");
    }

    #[test]
    fn u64_lane_values_survive_above_2_53() {
        let v = hex(u64::MAX);
        assert_eq!(parse_u64(&v), Some(u64::MAX));
        let text = v.to_string();
        assert_eq!(parse_u64(&Value::parse(&text).unwrap()), Some(u64::MAX));
    }

    #[test]
    fn outcomes_round_trip_both_arms() {
        let ok = JobOutcome {
            job: 9,
            tenant: "t".into(),
            result: Ok(JobResult {
                outputs: vec![RegInit { rfh: 0, vrf: 0, reg: 2, values: vec![1 << 60] }],
                cycles: u64::MAX / 3,
                instructions: 42,
            }),
            attempts: 2,
            preemptions: 1,
            wall_ms: 17,
        };
        let back =
            outcome_from_json(&Value::parse(&outcome_to_json(&ok).to_string()).unwrap()).unwrap();
        assert_eq!(back.result.unwrap(), ok.result.unwrap());

        for err in [
            JobError::DeadlineExceeded,
            JobError::FaultBudgetExhausted { attempts: 4, last: "line 3: fault".into() },
            JobError::WorkerPanic { payload: "poison job 5 detonated".into() },
        ] {
            let o = JobOutcome {
                job: 1,
                tenant: "t".into(),
                result: Err(err.clone()),
                attempts: 4,
                preemptions: 0,
                wall_ms: 1,
            };
            let back = outcome_from_json(&Value::parse(&outcome_to_json(&o).to_string()).unwrap())
                .unwrap();
            assert_eq!(back.result.unwrap_err(), err);
        }
    }

    #[test]
    fn frames_round_trip_and_reject_oversize() {
        let mut buf = Vec::new();
        let v = spec_to_json(&sample_spec());
        write_frame(&mut buf, &v).unwrap();
        write_frame(&mut buf, &Value::Bool(true)).unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r).unwrap().unwrap().to_string(), v.to_string());
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), Value::Bool(true));
        assert!(read_frame(&mut r).unwrap().is_none());

        let mut bogus: &[u8] = &[0xff, 0xff, 0xff, 0xff];
        assert_eq!(read_frame(&mut bogus).unwrap_err().kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn lying_length_prefix_is_not_preallocated() {
        /// Serves `data`, then EOF, recording the largest buffer offered.
        struct Recorder<'a> {
            data: &'a [u8],
            largest: usize,
        }
        impl Read for Recorder<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.largest = self.largest.max(buf.len());
                self.data.read(buf)
            }
        }
        let mut frame = (MAX_FRAME as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(b"{\"op\":\"hea");
        let mut r = Recorder { data: &frame, largest: 0 };
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        assert!(r.largest < 64 << 10, "body read into a {}-byte buffer", r.largest);
    }

    #[test]
    fn requests_round_trip() {
        for req in [
            Request::Submit(Box::new(sample_spec())),
            Request::Status(3),
            Request::Wait(4),
            Request::Cancel(5),
            Request::Health,
            Request::Shutdown,
        ] {
            let text = request_to_json(&req).to_string();
            let back = request_from_json(&Value::parse(&text).unwrap()).unwrap();
            assert_eq!(
                request_to_json(&back).to_string(),
                text,
                "request did not survive the round trip"
            );
        }
    }

    #[test]
    fn health_round_trips() {
        let h = HealthReport {
            state: HealthState::Degraded,
            queued: 3,
            capacity: 64,
            running: 2,
            workers_alive: 2,
            workers_spawned: 5,
            worker_deaths: 3,
            fault_retries: 100,
            recent_fault_retries: 6,
            preemptions: 9,
            shed: 4,
            completed: 400,
            failed: 20,
        };
        let back =
            health_from_json(&Value::parse(&health_to_json(&h).to_string()).unwrap()).unwrap();
        assert_eq!(back, h);
    }
}
